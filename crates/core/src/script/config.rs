//! The `ml:` section of a CI script: parsing, validation, and a builder.
//!
//! A [`CiScript`] captures everything the system needs to run a rigorous
//! integration test: the condition formula, the `(ε, δ)` reliability
//! requirement (ε lives inside each clause, δ = 1 − reliability), the
//! fp-free/fn-free mode, the adaptivity policy, and the step budget `H`.

use super::yaml::YamlDoc;
use crate::dsl::{parse_formula, validate_formula, Formula};
use crate::error::{CiError, Result, ScriptError};
use crate::logic::Mode;
use easeml_bounds::Adaptivity;
use std::fmt;

/// A fully validated ease.ml/ci configuration.
///
/// Construct one by parsing a script file ([`CiScript::parse`]) or through
/// the [`CiScriptBuilder`].
///
/// # Examples
///
/// ```
/// use easeml_ci_core::CiScript;
///
/// # fn main() -> Result<(), easeml_ci_core::CiError> {
/// let script = CiScript::parse(
///     "ml:\n\
///      \x20 - condition  : n - o > 0.02 +/- 0.01\n\
///      \x20 - reliability: 0.9999\n\
///      \x20 - mode       : fp-free\n\
///      \x20 - adaptivity : full\n\
///      \x20 - steps      : 32\n",
/// )?;
/// assert_eq!(script.steps(), 32);
/// assert!((script.delta() - 0.0001).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CiScript {
    condition: Formula,
    reliability: f64,
    mode: Mode,
    adaptivity: Adaptivity,
    steps: u32,
    script_path: Option<String>,
    notify: Option<String>,
}

impl CiScript {
    /// Start building a script configuration in code.
    #[must_use]
    pub fn builder() -> CiScriptBuilder {
        CiScriptBuilder::new()
    }

    /// Parse and validate the `ml:` section of a CI script file.
    ///
    /// Unknown Travis-style top-level keys are ignored; unknown keys
    /// *inside* the `ml:` section are errors (they are always typos).
    ///
    /// # Errors
    ///
    /// Returns a [`CiError`] when the document is malformed, the `ml:`
    /// section is missing, a required key is absent, or any value fails
    /// validation.
    pub fn parse(text: &str) -> Result<Self> {
        let doc = YamlDoc::parse(text)?;
        let Some(items) = doc.section("ml") else {
            return Err(ScriptError::new("script has no `ml:` section").into());
        };
        let mut builder = CiScriptBuilder::new();
        let mut saw_reliability = false;
        for item in items {
            match item.key.as_str() {
                "script" => {
                    builder = builder.script_path(item.value.clone());
                }
                "condition" => {
                    let formula = parse_formula(&item.value)?;
                    builder = builder.condition(formula);
                }
                "reliability" => {
                    let r: f64 = item.value.parse().map_err(|_| {
                        ScriptError::at_line(
                            item.line,
                            format!("reliability `{}` is not a number", item.value),
                        )
                    })?;
                    saw_reliability = true;
                    builder = builder.reliability(r);
                }
                "mode" => {
                    let mode: Mode =
                        item.value
                            .parse()
                            .map_err(|e: crate::logic::ParseModeError| {
                                ScriptError::at_line(item.line, e.to_string())
                            })?;
                    builder = builder.mode(mode);
                }
                "adaptivity" => {
                    // `none -> email@example.com` names the third party
                    // that reads results the developer cannot.
                    let (kind, notify) = match item.value.split_once("->") {
                        Some((k, addr)) => (k.trim(), Some(addr.trim().to_owned())),
                        None => (item.value.as_str(), None),
                    };
                    let adaptivity: Adaptivity =
                        kind.parse()
                            .map_err(|e: easeml_bounds::ParseAdaptivityError| {
                                ScriptError::at_line(item.line, e.to_string())
                            })?;
                    builder = builder.adaptivity(adaptivity);
                    if let Some(addr) = notify {
                        builder = builder.notify(addr);
                    }
                }
                "steps" => {
                    let steps: u32 = item.value.parse().map_err(|_| {
                        ScriptError::at_line(
                            item.line,
                            format!("steps `{}` is not a positive integer", item.value),
                        )
                    })?;
                    builder = builder.steps(steps);
                }
                other => {
                    return Err(ScriptError::at_line(
                        item.line,
                        format!("unknown `ml:` key `{other}`"),
                    )
                    .into())
                }
            }
        }
        if !saw_reliability {
            return Err(ScriptError::new("`ml:` section is missing `reliability`").into());
        }
        builder.build()
    }

    /// The condition formula.
    #[must_use]
    pub fn condition(&self) -> &Formula {
        &self.condition
    }

    /// The success probability `1 − δ`.
    #[must_use]
    pub fn reliability(&self) -> f64 {
        self.reliability
    }

    /// The failure budget `δ = 1 − reliability`.
    #[must_use]
    pub fn delta(&self) -> f64 {
        1.0 - self.reliability
    }

    /// The fp-free / fn-free decision mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The adaptivity policy.
    #[must_use]
    pub fn adaptivity(&self) -> Adaptivity {
        self.adaptivity
    }

    /// The step budget `H`: how many commits one testset must support.
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Path of the user's test script, if declared (informational).
    #[must_use]
    pub fn script_path(&self) -> Option<&str> {
        self.script_path.as_deref()
    }

    /// Third-party notification address of `adaptivity: none -> addr`.
    /// It is parsed and rendered back by [`CiScript::to_script_text`];
    /// nothing in the workspace delivers to it.
    #[must_use]
    pub fn notify(&self) -> Option<&str> {
        self.notify.as_deref()
    }

    /// Render the configuration back into `ml:` section text.
    #[must_use]
    pub fn to_script_text(&self) -> String {
        let mut out = String::from("ml:\n");
        if let Some(path) = &self.script_path {
            out.push_str(&format!("  - script     : {path}\n"));
        }
        out.push_str(&format!("  - condition  : {}\n", self.condition));
        out.push_str(&format!("  - reliability: {}\n", self.reliability));
        out.push_str(&format!("  - mode       : {}\n", self.mode));
        match &self.notify {
            Some(addr) => {
                out.push_str(&format!("  - adaptivity : {} -> {addr}\n", self.adaptivity))
            }
            None => out.push_str(&format!("  - adaptivity : {}\n", self.adaptivity)),
        }
        out.push_str(&format!("  - steps      : {}\n", self.steps));
        out
    }
}

impl fmt::Display for CiScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_script_text())
    }
}

/// Builder for [`CiScript`] (defaults: mode `fp-free`, adaptivity `none`,
/// steps 32, reliability 0.9999).
#[derive(Debug, Clone, Default)]
pub struct CiScriptBuilder {
    condition: Option<Formula>,
    reliability: f64,
    mode: Mode,
    adaptivity: Adaptivity,
    steps: u32,
    script_path: Option<String>,
    notify: Option<String>,
}

impl CiScriptBuilder {
    /// Create a builder with the documented defaults.
    #[must_use]
    pub fn new() -> Self {
        CiScriptBuilder {
            condition: None,
            reliability: 0.9999,
            mode: Mode::FpFree,
            adaptivity: Adaptivity::None,
            steps: 32,
            script_path: None,
            notify: None,
        }
    }

    /// Set the condition from an already-parsed formula.
    #[must_use]
    pub fn condition(mut self, formula: Formula) -> Self {
        self.condition = Some(formula);
        self
    }

    /// Set the condition by parsing source text.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed condition text.
    pub fn condition_str(self, text: &str) -> Result<Self> {
        let formula = parse_formula(text)?;
        Ok(self.condition(formula))
    }

    /// Set the success probability `1 − δ`.
    #[must_use]
    pub fn reliability(mut self, reliability: f64) -> Self {
        self.reliability = reliability;
        self
    }

    /// Set the decision mode.
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the adaptivity policy.
    #[must_use]
    pub fn adaptivity(mut self, adaptivity: Adaptivity) -> Self {
        self.adaptivity = adaptivity;
        self
    }

    /// Set the step budget `H`.
    #[must_use]
    pub fn steps(mut self, steps: u32) -> Self {
        self.steps = steps;
        self
    }

    /// Record the user's test-script path (informational).
    #[must_use]
    pub fn script_path(mut self, path: impl Into<String>) -> Self {
        self.script_path = Some(path.into());
        self
    }

    /// Set the third-party notification address used with
    /// `adaptivity: none` (recorded only; see [`CiScript::notify`]).
    #[must_use]
    pub fn notify(mut self, address: impl Into<String>) -> Self {
        self.notify = Some(address.into());
        self
    }

    /// Validate and produce the final configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CiError`] if the condition is missing or semantically
    /// invalid, the reliability is not in `(0, 1)`, or `steps` is zero.
    pub fn build(self) -> Result<CiScript> {
        let Some(condition) = self.condition else {
            return Err(CiError::Semantic("a condition is required".into()));
        };
        validate_formula(&condition)?;
        if !(self.reliability > 0.0 && self.reliability < 1.0) {
            return Err(CiError::Semantic(format!(
                "reliability must be in (0, 1), got {}",
                self.reliability
            )));
        }
        if self.steps == 0 {
            return Err(CiError::Semantic("steps must be at least 1".into()));
        }
        Ok(CiScript {
            condition,
            reliability: self.reliability,
            mode: self.mode,
            adaptivity: self.adaptivity,
            steps: self.steps,
            script_path: self.script_path,
            notify: self.notify,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL_SCRIPT: &str = "\
ml:
  - script     : ./test_model.py
  - condition  : n - o > 0.02 +/- 0.01
  - reliability: 0.9999
  - mode       : fp-free
  - adaptivity : full
  - steps      : 32
";

    const NONE_SCRIPT: &str = "\
ml:
  - script     : ./test_model.py
  - condition  : d < 0.1 +/- 0.01
  - reliability: 0.9999
  - mode       : fp-free
  - adaptivity : none -> xx@abc.com
  - steps      : 32
";

    #[test]
    fn parses_figure1_full_script() {
        let s = CiScript::parse(FULL_SCRIPT).unwrap();
        assert_eq!(s.condition().to_string(), "n - o > 0.02 +/- 0.01");
        assert_eq!(s.reliability(), 0.9999);
        assert!((s.delta() - 0.0001).abs() < 1e-12);
        assert_eq!(s.mode(), Mode::FpFree);
        assert_eq!(s.adaptivity(), Adaptivity::Full);
        assert_eq!(s.steps(), 32);
        assert_eq!(s.script_path(), Some("./test_model.py"));
        assert_eq!(s.notify(), None);
    }

    #[test]
    fn parses_non_adaptive_script_with_email() {
        let s = CiScript::parse(NONE_SCRIPT).unwrap();
        assert_eq!(s.adaptivity(), Adaptivity::None);
        assert_eq!(s.notify(), Some("xx@abc.com"));
    }

    #[test]
    fn script_round_trips_through_text() {
        for src in [FULL_SCRIPT, NONE_SCRIPT] {
            let s = CiScript::parse(src).unwrap();
            let reparsed = CiScript::parse(&s.to_script_text()).unwrap();
            assert_eq!(s, reparsed);
        }
    }

    #[test]
    fn travis_keys_pass_through() {
        let text = format!("language: python\nsudo: false\n{FULL_SCRIPT}");
        assert!(CiScript::parse(&text).is_ok());
    }

    #[test]
    fn missing_ml_section() {
        let err = CiScript::parse("language: python\n").unwrap_err();
        assert!(err.to_string().contains("ml"));
    }

    #[test]
    fn missing_reliability() {
        let err = CiScript::parse("ml:\n  - condition : n > 0.5 +/- 0.1\n").unwrap_err();
        assert!(err.to_string().contains("reliability"));
    }

    #[test]
    fn missing_condition() {
        let err = CiScript::parse("ml:\n  - reliability : 0.99\n").unwrap_err();
        assert!(err.to_string().contains("condition"));
    }

    #[test]
    fn unknown_ml_key_is_an_error() {
        let err = CiScript::parse(
            "ml:\n  - condition : n > 0.5 +/- 0.1\n  - reliability : 0.99\n  - stpes : 32\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("stpes"));
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let s = CiScript::builder()
            .condition_str("n > 0.8 +/- 0.05")
            .unwrap()
            .reliability(0.999)
            .mode(Mode::FnFree)
            .adaptivity(Adaptivity::FirstChange)
            .steps(16)
            .build()
            .unwrap();
        assert_eq!(s.mode(), Mode::FnFree);
        assert_eq!(s.adaptivity(), Adaptivity::FirstChange);
        assert_eq!(s.steps(), 16);
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(CiScript::builder().build().is_err()); // no condition
        assert!(CiScript::builder()
            .condition_str("n > 0.8 +/- 0.05")
            .unwrap()
            .reliability(1.0)
            .build()
            .is_err());
        assert!(CiScript::builder()
            .condition_str("n > 0.8 +/- 0.05")
            .unwrap()
            .steps(0)
            .build()
            .is_err());
        // Semantically vacuous condition is caught at build time.
        assert!(CiScript::builder()
            .condition_str("n > 0.5 +/- 1.0")
            .unwrap()
            .build()
            .is_err());
    }

    #[test]
    fn reliability_must_be_numeric() {
        let err = CiScript::parse("ml:\n  - condition : n > 0.5 +/- 0.1\n  - reliability : very\n")
            .unwrap_err();
        assert!(err.to_string().contains("not a number"));
    }
}
