//! Extensions sketched in the paper's §2.2 "Discussion and Future
//! Extensions": beyond-accuracy metrics via McDiarmid sensitivity
//! analysis.

mod f1;
mod topk;

pub use f1::{f1_sample_size, f1_score, F1Sensitivity};
pub use topk::{RankedModel, TopKGate};
