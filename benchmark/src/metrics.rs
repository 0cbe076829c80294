//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` declares the same lists; a unit test keeps them equal.

use crate::trace::Layer;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// Declared for the reader of `BENCHMARK.json`; the schema test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "serve_steady",
    "serve_churn",
    "ingest_bulk",
    "matrix_regimes",
];

/// The end-to-end metrics. Every workload reports every one of them; what an
/// operation and a batch are on each workload is in the README.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        metric("ops_per_s", "1/s", Better::Higher),
        metric("op_p50_us", "us", Better::Lower),
        metric("batch_p50_ms", "ms", Better::Lower),
        metric("utility_ratio", "ratio", Better::Higher),
        metric("peak_rss_mb", "MB", Better::Lower),
        metric("setup_s", "s", Better::Lower),
    ]
}

/// Regimes of the experiment matrix, in `PrivacyRegime::ALL` order, by the
/// key their per-layer metrics carry.
pub const REGIME_KEYS: [&str; 5] = [
    "non_private",
    "ldp_randomized_response",
    "p2b_shuffle",
    "central_dp_tree",
    "secure_agg",
];

/// The per-layer metrics, from the traced run only. A layer a workload never
/// enters reads 0 there.
pub fn per_layer() -> Vec<Metric> {
    let mut all = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for layer in Layer::ALL {
        let Some(name) = layer.reported_as() else {
            continue;
        };
        if seen.contains(&name) {
            continue;
        }
        seen.push(name);
        all.push(metric(format!("{name}.us_mean"), "us", Better::Lower));
        all.push(metric(format!("{name}.share"), "ratio", Better::Lower));
    }
    for (name, unit, better) in [
        ("core.pool.hit_ratio", "ratio", Better::Higher),
        ("core.pool.evictions_per_1k", "count", Better::Lower),
        ("core.pool.rehydrations", "count", Better::Lower),
        ("core.pool.creations", "count", Better::Lower),
        ("core.join.shed", "count", Better::Lower),
        ("core.join.expired_ratio", "ratio", Better::Lower),
        ("core.join.late_rewards", "count", Better::Lower),
        ("core.join.peak_pending", "count", Better::Lower),
        ("shuffler.reports_submitted", "count", Better::Higher),
        ("shuffler.released_ratio", "ratio", Better::Higher),
        ("shuffler.batches", "count", Better::Lower),
        ("shuffler.min_released_code_freq", "count", Better::Higher),
        ("core.server.accepted", "count", Better::Higher),
        ("core.server.coalesce_ratio", "ratio", Better::Lower),
        ("core.service.epochs", "count", Better::Higher),
        ("privacy.eps_per_batch", "eps", Better::Lower),
        ("privacy.delta_per_batch_max", "delta", Better::Lower),
    ] {
        all.push(metric(name, unit, better));
    }
    for key in REGIME_KEYS {
        all.push(metric(
            format!("experiments.reward.{key}"),
            "ratio",
            Better::Higher,
        ));
    }
    for (name, unit, better) in [
        ("driver.paced_p50_us", "us", Better::Lower),
        ("driver.paced_p99_us", "us", Better::Lower),
        ("driver.paced_late_p99_us", "us", Better::Lower),
        ("driver.paced_backlog_max", "count", Better::Lower),
        ("driver.paced_shed", "count", Better::Lower),
        ("driver.share_sum", "ratio", Better::Higher),
        ("driver.trace_overhead_ratio", "ratio", Better::Higher),
        ("driver.op_tail_us", "us", Better::Lower),
        ("encoding.encode.ns_mean", "ns", Better::Lower),
        ("encoding.representative.ns_mean", "ns", Better::Lower),
        ("encoding.kmeans_fit.ms", "ms", Better::Lower),
        ("bandit.select.ns_mean", "ns", Better::Lower),
        ("bandit.update.ns_mean", "ns", Better::Lower),
        ("core.reporter.observe.ns_mean", "ns", Better::Lower),
        ("core.agent.cow_clone.us_mean", "us", Better::Lower),
        (
            "core.agent.dehydrate_rehydrate.us_mean",
            "us",
            Better::Lower,
        ),
        ("shuffler.process_sync.ns_per_report", "ns", Better::Lower),
        ("privacy.rr.ns_mean", "ns", Better::Lower),
        ("privacy.tree_release.us_mean", "us", Better::Lower),
        ("privacy.share_split.ns_per_coord", "ns", Better::Lower),
    ] {
        all.push(metric(name, unit, better));
    }
    all
}

/// Values of one metric list, every declared name present from the start.
#[derive(Debug, Clone)]
pub struct Values {
    entries: Vec<(Metric, f64)>,
}

impl Values {
    pub fn zeroed(metrics: Vec<Metric>) -> Self {
        Self {
            entries: metrics.into_iter().map(|m| (m, 0.0)).collect(),
        }
    }

    /// The entry of a declared metric; an undeclared name is a bug in the
    /// benchmark.
    fn entry(&mut self, name: &str) -> &mut (Metric, f64) {
        self.entries
            .iter_mut()
            .find(|(m, _)| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.entry(name).1 = value;
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(m, _)| m.name == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Metric, f64)> {
        self.entries.iter().map(|(m, v)| (m, *v))
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite number with all its digits; anything else reads as 0 so the
/// result line stays valid JSON (the run is marked incorrect elsewhere).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}
