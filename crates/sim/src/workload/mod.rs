//! End-to-end experiment workloads reproducing the paper's §5 scenarios.

pub mod semeval;
