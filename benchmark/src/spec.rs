//! `BENCHMARK.json`, embedded at build time: the run length, and the bound by
//! which each end-to-end metric may worsen.

// Fields the driver itself never reads are read by the schema test below.
#![cfg_attr(not(test), allow(dead_code))]

use serde::Deserialize;

#[derive(Debug, Clone, Deserialize)]
pub struct SpecWorkload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct SpecEndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct SpecPerLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<SpecWorkload>,
    pub end_to_end: Vec<SpecEndToEnd>,
    pub per_layer: Vec<SpecPerLayer>,
}

impl Spec {
    pub fn embedded() -> Result<Self, String> {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The names the benchmark prints are the names `BENCHMARK.json` declares,
    /// with the same units and directions, inside the contract's limits.
    #[test]
    fn printed_names_equal_declared_names() {
        let spec = Spec::embedded().unwrap();

        let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, metrics::WORKLOADS);
        assert!((2..=8).contains(&workloads.len()));
        assert!(spec
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));

        let printed = metrics::end_to_end();
        assert!((1..=16).contains(&printed.len()));
        assert_eq!(spec.end_to_end.len(), printed.len());
        for (declared, printed) in spec.end_to_end.iter().zip(&printed) {
            assert_eq!(declared.name, printed.name);
            assert_eq!(declared.unit, printed.unit, "{}", declared.name);
            assert_eq!(
                declared.better,
                printed.better.as_str(),
                "{}",
                declared.name
            );
            assert!(
                declared.bound > 0.0 && declared.bound <= 0.25,
                "{}",
                declared.name
            );
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));

        let printed = metrics::per_layer();
        assert!((1..=128).contains(&printed.len()));
        assert_eq!(spec.per_layer.len(), printed.len());
        for (declared, printed) in spec.per_layer.iter().zip(&printed) {
            assert_eq!(declared.name, printed.name);
            assert_eq!(declared.unit, printed.unit, "{}", declared.name);
            assert_eq!(
                declared.better,
                printed.better.as_str(),
                "{}",
                declared.name
            );
        }

        let mut names: Vec<&str> = workloads;
        names.extend(spec.end_to_end.iter().map(|m| m.name.as_str()));
        names.extend(spec.per_layer.iter().map(|m| m.name.as_str()));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        assert_eq!(spec.paths, ["benchmark"]);
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(spec.command.len() <= 32);
    }
}
