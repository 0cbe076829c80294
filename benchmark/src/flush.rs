//! One epoch flush through the write path, shared by the serve workloads and
//! `ingest_bulk`: `spawn_engine` → `submit`× → `finish` →
//! `ingest_engine_batch` → `AgentSource::capture`, each call under its span.

use crate::trace::{Layer, Tracer};
use crate::workload::{fail, Checks, Counts};
use p2b_core::{AgentSource, P2bSystem};
use p2b_shuffler::RawReport;
use std::collections::HashSet;
use std::time::Instant;

/// Reports per timed `submit` chunk (the operation `ingest_bulk` reports on).
pub const SUBMIT_CHUNK: usize = 1_024;

/// The paper's per-report budget at participation p = 0.5: ε = ln 2.
const EPSILON_AT_HALF: f64 = std::f64::consts::LN_2;

/// What the flushes of one repetition add up to.
#[derive(Debug, Default)]
pub struct FlushTally {
    pub counts: Counts,
    pub distinct_pairs: u64,
    pub checks: Checks,
    /// Wall time per report of each [`SUBMIT_CHUNK`]-report `submit` chunk.
    pub chunk_ns_per_report: Vec<u64>,
}

/// Flushes `reports` as epoch `epoch`; returns the published source and when
/// it was published (the driver's own checking follows that instant).
pub fn flush_epoch(
    system: &mut P2bSystem,
    reports: Vec<RawReport>,
    seed: u64,
    epoch: u64,
    tracer: &mut Tracer,
    tally: &mut FlushTally,
) -> Result<(AgentSource, Instant), String> {
    let threshold = system.config().shuffler_threshold as u64;
    let submitted = reports.len() as u64;

    let span = tracer.open(Layer::ShufflerSpawn, epoch);
    let handle = system.spawn_engine(seed).map_err(fail("spawn_engine"))?;
    tracer.close(span);

    let span = tracer.open(Layer::ShufflerSubmit, epoch);
    let mut reports = reports.into_iter();
    loop {
        let started = Instant::now();
        let mut sent = 0u64;
        for report in reports.by_ref().take(SUBMIT_CHUNK) {
            handle.submit(report).map_err(fail("submit"))?;
            sent += 1;
        }
        if sent == 0 {
            break;
        }
        tally
            .chunk_ns_per_report
            .push(started.elapsed().as_nanos() as u64 / sent);
    }
    tracer.close(span);

    let span = tracer.open(Layer::ShufflerFinish, epoch);
    let output = handle.finish();
    tracer.close(span);

    let span = tracer.open(Layer::ServerIngest, epoch);
    let mut received = 0u64;
    for batch in &output.batches {
        let stats = system
            .ingest_engine_batch(batch)
            .map_err(fail("ingest_engine_batch"))?;
        received += stats.received as u64;
        tally.counts.reports_released += stats.released as u64;
        tally.counts.reports_thresholded += stats.dropped as u64;
        tally.counts.accepted += stats.accepted;
        tally.counts.batches += 1;
        tally
            .checks
            .expect(stats.received == stats.released + stats.dropped, || {
                format!("epoch {epoch}: a batch lost reports between receipt and release")
            });
    }
    tracer.close(span);

    let span = tracer.open(Layer::ServicePublish, epoch);
    let source = AgentSource::capture(system).map_err(fail("capture"))?;
    tracer.close(span);
    let published = Instant::now();

    tally.counts.reports_submitted += submitted;
    tally.counts.epochs += 1;
    tally.checks.expect(received == submitted, || {
        format!("epoch {epoch}: submitted {submitted} reports, batches received {received}")
    });
    for batch in &output.batches {
        let stats = batch.batch.stats();
        if stats.released > 0 {
            let least = batch.batch.min_released_code_frequency() as u64;
            tally.checks.expect(least >= threshold, || {
                format!("epoch {epoch}: a code was released with {least} < l = {threshold} reports")
            });
            let so_far = tally.counts.min_released_code_freq;
            tally.counts.min_released_code_freq = if so_far == 0 {
                least
            } else {
                so_far.min(least)
            };
        }
        match &batch.amplification {
            // A batch that released nothing is recorded with (0, 0).
            Some(record) if record.released == 0 => {}
            Some(record) => {
                let epsilon = record.guarantee.epsilon();
                tally
                    .checks
                    .expect((epsilon - EPSILON_AT_HALF).abs() < 1e-12, || {
                        format!("epoch {epoch}: per-batch ε = {epsilon}, the budget is ln 2")
                    });
                tally.counts.eps_per_batch = epsilon;
                tally.counts.delta_per_batch_max = tally
                    .counts
                    .delta_per_batch_max
                    .max(record.guarantee.delta());
            }
            None => tally.checks.expect(false, || {
                format!("epoch {epoch}: a batch carries no amplification record")
            }),
        }
        if tracer.enabled() {
            let pairs: HashSet<(usize, usize)> = batch
                .batch
                .reports()
                .iter()
                .map(|r| (r.code(), r.action()))
                .collect();
            tally.distinct_pairs += pairs.len() as u64;
        }
    }
    let ledger_eps = output.ledger.as_ref().map(|l| l.per_report_epsilon());
    tally.checks.expect(
        ledger_eps.is_some_and(|e| (e - EPSILON_AT_HALF).abs() < 1e-12),
        || format!("epoch {epoch}: ledger ε = {ledger_eps:?}, the budget is ln 2"),
    );
    Ok((source, published))
}
