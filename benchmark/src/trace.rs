//! In-memory spans around the driver's calls into each layer.
//!
//! A span records its layer, start, end, the span that caused it and a
//! request id (event index, epoch number or cell number). Spans are kept in
//! memory and written out once, when the process ends. A layer's self time is
//! its span's duration minus the part its child spans cover, net of the
//! recorder's own calibrated cost.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One round in sixteen of a traced repetition has every decision and every
/// fold wrapped in spans; their self times stand for the fifteen rounds that
/// are not. Whole rounds, because a traced path taken once in sixteen
/// decisions runs cold and reads some 5 % slower than the path it stands for.
pub const SAMPLE_EVERY: u64 = 16;

/// The boundaries the driver records spans at. Names are
/// `<crate>.<module>.<call>`; `driver.*` is the benchmark's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    SimArrivalEvent,
    JoinTryRecord,
    JoinSettle,
    PoolDecide,
    PoolFold,
    AgentSelect,
    AgentObserve,
    PoolDrain,
    DriverSort,
    ShufflerSpawn,
    ShufflerSubmit,
    ShufflerFinish,
    ServerIngest,
    ServicePublish,
    CellNonPrivate,
    CellLdp,
    CellP2bShuffle,
    CellCentralDp,
    CellSecureAgg,
    /// A stretch of timed wall (a repetition; on `ingest_bulk` an epoch): the
    /// root of its spans. Its self time is the untraced remainder and is
    /// never reported.
    DriverRep,
    /// One sampled arrival, admission to reward scheduling.
    DriverEvent,
    /// One sampled joined reward being folded.
    DriverFold,
    /// One epoch flush, drain to published snapshot.
    DriverFlush,
}

impl Layer {
    pub const ALL: [Layer; 23] = [
        Layer::SimArrivalEvent,
        Layer::JoinTryRecord,
        Layer::JoinSettle,
        Layer::PoolDecide,
        Layer::PoolFold,
        Layer::AgentSelect,
        Layer::AgentObserve,
        Layer::PoolDrain,
        Layer::DriverSort,
        Layer::ShufflerSpawn,
        Layer::ShufflerSubmit,
        Layer::ShufflerFinish,
        Layer::ServerIngest,
        Layer::ServicePublish,
        Layer::CellNonPrivate,
        Layer::CellLdp,
        Layer::CellP2bShuffle,
        Layer::CellCentralDp,
        Layer::CellSecureAgg,
        Layer::DriverRep,
        Layer::DriverEvent,
        Layer::DriverFold,
        Layer::DriverFlush,
    ];

    /// The span's name in `trace-*.json`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SimArrivalEvent => "sim.arrival_event",
            Layer::JoinTryRecord => "core.join.try_record",
            Layer::JoinSettle => "core.join.settle",
            Layer::PoolDecide => "core.pool.decide",
            Layer::PoolFold => "core.pool.fold",
            Layer::AgentSelect => "core.agent.select",
            Layer::AgentObserve => "core.agent.observe",
            Layer::PoolDrain => "core.pool.drain",
            Layer::DriverSort => "driver.sort",
            Layer::ShufflerSpawn => "shuffler.spawn",
            Layer::ShufflerSubmit => "shuffler.submit",
            Layer::ShufflerFinish => "shuffler.finish",
            Layer::ServerIngest => "core.server.ingest",
            Layer::ServicePublish => "core.service.publish",
            Layer::CellNonPrivate => "experiments.cell.non_private",
            Layer::CellLdp => "experiments.cell.ldp_randomized_response",
            Layer::CellP2bShuffle => "experiments.cell.p2b_shuffle",
            Layer::CellCentralDp => "experiments.cell.central_dp_tree",
            Layer::CellSecureAgg => "experiments.cell.secure_agg",
            Layer::DriverRep => "driver.rep",
            Layer::DriverEvent => "driver.event",
            Layer::DriverFold => "driver.fold",
            Layer::DriverFlush => "driver.flush",
        }
    }

    /// The per-layer metric prefix the span's self time is reported under:
    /// the driver's own spans pool into `driver.other`, the root into nothing.
    pub fn reported_as(self) -> Option<&'static str> {
        match self {
            Layer::DriverRep => None,
            Layer::DriverEvent | Layer::DriverFold | Layer::DriverFlush => Some("driver.other"),
            layer => Some(layer.name()),
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    /// Index of the causing span, `None` for a repetition root.
    pub parent: Option<u32>,
    pub request: u64,
    /// How many like spans this one stands for (1, or [`SAMPLE_EVERY`] inside
    /// a sampled round's decisions and folds).
    pub weight: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What recording one span costs, measured on empty spans when tracing is
/// first switched on: the clock reads and the push are neither the span's
/// work nor its parent's, and a sampled decision carries five of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Overhead {
    /// Recorded duration of a span that wraps nothing.
    pub inside_ns: u64,
    /// What such a span adds to its parent beyond its recorded duration.
    pub outside_ns: u64,
}

/// Token for an open span; closing a token from a disabled tracer is free.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<u32>);

/// The span recorder. Disabled (the default for untraced runs) every call is
/// one predictable branch and no clock read.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    overhead: Overhead,
    sample_every: u64,
}

impl Tracer {
    /// A recorder that samples one round in [`SAMPLE_EVERY`].
    pub fn new() -> Self {
        Self::sampling_every(SAMPLE_EVERY)
    }

    /// A recorder that samples one round in `sample_every`. A smoke run
    /// traces every round: with two sampled rounds in 32, one disturbed round
    /// moves the extrapolated shares by a tenth.
    pub fn sampling_every(sample_every: u64) -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            overhead: Overhead::default(),
            sample_every,
        }
    }

    /// Turns recording on or off between repetitions; the first switch-on
    /// calibrates the recorder's own cost.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        if on && self.spans.capacity() == 0 {
            self.spans.reserve(1 << 20);
            self.on = true;
            self.calibrate();
        }
        self.on = on;
    }

    /// Times empty spans under a parent, as the driver nests them.
    fn calibrate(&mut self) {
        const EMPTY_SPANS: u64 = 1 << 15;
        let parent = self.open(Layer::DriverRep, 0);
        let started = self.now_ns();
        for request in 0..EMPTY_SPANS {
            let span = self.open(Layer::DriverEvent, request);
            self.close(span);
        }
        let total_ns = self.now_ns() - started;
        self.close(parent);
        let inside_ns = self.spans[1..]
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>()
            / EMPTY_SPANS;
        self.overhead = Overhead {
            inside_ns,
            outside_ns: (total_ns / EMPTY_SPANS).saturating_sub(inside_ns),
        };
        self.spans.clear();
    }

    pub fn overhead(&self) -> Overhead {
        self.overhead
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Whether `round` is a sampled one. The sampled offset moves on by one
    /// in each block of sixteen rounds, so the sample does not lock onto one
    /// phase of the eight-round epoch. It starts mid-block: the first rounds
    /// of a repetition have no rewards to fold yet and stand for nothing.
    pub fn samples(&self, round: u64) -> bool {
        let every = self.sample_every;
        self.on && round % every == (round / every + every / 2) % every
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one, inheriting its weight.
    #[inline]
    pub fn open(&mut self, layer: Layer, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let weight = self
            .stack
            .last()
            .map_or(1, |&parent| self.spans[parent as usize].weight);
        self.push(layer, request, weight)
    }

    /// [`Tracer::open`] when `sampled`, nothing otherwise.
    #[inline]
    pub fn open_if(&mut self, sampled: bool, layer: Layer, request: u64) -> Open {
        if sampled {
            self.open(layer, request)
        } else {
            Open(None)
        }
    }

    /// Opens the top span of a sampled decision or fold: it and its children
    /// each stand for as many like spans as one sampled round stands for.
    #[inline]
    pub fn open_sampled(&mut self, sampled: bool, layer: Layer, request: u64) -> Open {
        if !(sampled && self.on) {
            return Open(None);
        }
        self.push(layer, request, self.sample_every as u32)
    }

    fn push(&mut self, layer: Layer, request: u64, weight: u32) -> Open {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: self.stack.last().copied(),
            request,
            weight,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    #[inline]
    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Writes the spans as one JSON document (see the README for the shape).
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = Layer::ALL
            .iter()
            .map(|l| format!("\"{}\"", l.name()))
            .collect();
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"sample_every\":{},\
             \"overhead_ns\":{{\"inside\":{},\"outside\":{}}},\
             \"names\":[{}],\
             \"columns\":[\"id\",\"parent\",\"name\",\"request\",\"weight\",\"start_ns\",\"end_ns\"],\
             \"spans\":[",
            self.sample_every,
            self.overhead.inside_ns,
            self.overhead.outside_ns,
            names.join(",")
        )?;
        let mut row = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            row.clear();
            let parent = span.parent.map_or(-1, i64::from);
            let _ = write!(
                row,
                "[{id},{parent},{},{},{},{},{}]",
                span.layer as u8, span.request, span.weight, span.start_ns, span.end_ns
            );
            if id + 1 != self.spans.len() {
                row.push(',');
            }
            writeln!(out, "{row}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time of every span in `spans`: its duration minus the durations of
/// the spans that name it as parent, and minus what recording itself and
/// those children cost.
pub fn self_times(spans: &[Span], overhead: Overhead) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(overhead.inside_ns))
        .collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.end_ns - span.start_ns + overhead.outside_ns;
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// What the spans of one reported name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Their self time, unweighted (for the per-span mean).
    pub self_ns: u64,
    /// Their self time with each span standing for its weight (for the share
    /// of the wall).
    pub weighted_self_ns: u64,
}

/// Pools self times by reported name, in first-seen order of [`Layer::ALL`].
pub fn totals_by_name(spans: &[Span], overhead: Overhead) -> Vec<(&'static str, LayerTotals)> {
    let own = self_times(spans, overhead);
    let mut by_layer = [LayerTotals::default(); Layer::ALL.len()];
    for (span, &self_ns) in spans.iter().zip(&own) {
        let totals = &mut by_layer[span.layer as usize];
        totals.spans += 1;
        totals.self_ns += self_ns;
        totals.weighted_self_ns += self_ns * u64::from(span.weight);
    }
    let mut by_name: Vec<(&'static str, LayerTotals)> = Vec::new();
    for layer in Layer::ALL {
        let Some(name) = layer.reported_as() else {
            continue;
        };
        let add = by_layer[layer as usize];
        match by_name.iter_mut().find(|(n, _)| *n == name) {
            Some((_, totals)) => {
                totals.spans += add.spans;
                totals.self_ns += add.self_ns;
                totals.weighted_self_ns += add.weighted_self_ns;
            }
            None => by_name.push((name, add)),
        }
    }
    by_name
}

/// Wall time the traced repetitions cover: the sum of the root spans, less
/// what recording every span under them cost — self times leave that cost
/// out, so the wall they are shares of must too.
pub fn traced_wall_ns(spans: &[Span], overhead: Overhead) -> u64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.layer == Layer::DriverRep)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let recording = spans.len() as u64 * (overhead.inside_ns + overhead.outside_ns);
    roots.saturating_sub(recording)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, weight: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            request: 0,
            weight,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // rep[0,1000] > decide[100,600] > select[200,500]; rep > settle[700,900]
        let spans = [
            span(Layer::DriverRep, None, 1, 0, 1_000),
            span(Layer::PoolDecide, Some(0), 1, 100, 600),
            span(Layer::AgentSelect, Some(1), 1, 200, 500),
            span(Layer::JoinSettle, Some(0), 1, 700, 900),
        ];
        // The grandchild is taken from its parent, not from the root.
        assert_eq!(
            self_times(&spans, Overhead::default()),
            vec![300, 200, 300, 200]
        );
        // Recording costs each span 10 ns inside and its parent 5 ns more.
        let overhead = Overhead {
            inside_ns: 10,
            outside_ns: 5,
        };
        assert_eq!(self_times(&spans, overhead), vec![280, 185, 290, 190]);
    }

    #[test]
    fn totals_weight_sampled_spans_and_pool_the_drivers_own() {
        let spans = [
            span(Layer::DriverRep, None, 1, 0, 10_000),
            span(Layer::DriverEvent, Some(0), 16, 0, 100),
            span(Layer::PoolDecide, Some(1), 16, 10, 90),
            span(Layer::AgentSelect, Some(2), 16, 20, 80),
            span(Layer::DriverFlush, Some(0), 1, 500, 900),
            span(Layer::ShufflerFinish, Some(4), 1, 600, 800),
        ];
        let totals = totals_by_name(&spans, Overhead::default());
        let get = |name: &str| totals.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(
            get("core.agent.select"),
            LayerTotals {
                spans: 1,
                self_ns: 60,
                weighted_self_ns: 960
            }
        );
        assert_eq!(get("core.pool.decide").self_ns, 20);
        // event self 20 (×16) + flush self 200 (×1) pool into driver.other.
        assert_eq!(get("driver.other").spans, 2);
        assert_eq!(get("driver.other").weighted_self_ns, 20 * 16 + 200);
        assert!(totals.iter().all(|(n, _)| *n != "driver.rep"));
        assert_eq!(traced_wall_ns(&spans, Overhead::default()), 10_000);
        let overhead = Overhead {
            inside_ns: 10,
            outside_ns: 5,
        };
        assert_eq!(traced_wall_ns(&spans, overhead), 10_000 - 6 * 15);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut tracer = Tracer::new();
        let open = tracer.open(Layer::DriverRep, 0);
        tracer.close(open);
        assert!(tracer.spans().is_empty());

        tracer.set_enabled(true);
        let rep = tracer.open(Layer::DriverRep, 7);
        let skipped = tracer.open_sampled(false, Layer::DriverEvent, 1);
        tracer.close(skipped);
        let event = tracer.open_sampled(tracer.samples(25), Layer::DriverEvent, 32);
        let decide = tracer.open(Layer::PoolDecide, 32);
        tracer.close(decide);
        tracer.close(event);
        tracer.close(rep);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].weight), (None, 1));
        assert_eq!((spans[1].parent, spans[1].weight), (Some(0), 16));
        assert_eq!((spans[2].parent, spans[2].weight), (Some(1), 16));
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
        let sampled: Vec<u64> = (0..64).filter(|&r| tracer.samples(r)).collect();
        assert_eq!(sampled, [8, 25, 42, 59]);
    }
}
