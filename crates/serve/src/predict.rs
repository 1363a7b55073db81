//! The prediction endpoint: per-core tables trained on completed jobs.
//!
//! Training mirrors the offline path (`Dataset::to_train_records` +
//! `Predictor::train`) exactly, over the merged records of every
//! completed job *of the requested core model* — so for a given record
//! set the service returns the same ranked-unit order and type bit as
//! the `repro_all` / `fig10_table_contents` binaries. Both are
//! deterministic, which is what the CI service-smoke job asserts end
//! to end. Tables are kept per core because trained entries do not
//! transfer between the LR5 and LR7 netlists (the cross-core matrix in
//! `EXPERIMENTS.md` measures the collapse): pooling records across
//! cores would contaminate both diagnoses.
//!
//! What training reads of each completed job is cached: jobs are
//! immutable once complete, and tables retrain only when the
//! scheduler's completion generation moves. The cache keeps one
//! [`Sample`] per manifested record (16 bytes), not the merged archive,
//! so a long-running server's memory grows by a few KiB per job.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use lockstep_core::{Dsr, Predictor, PredictorConfig, TrainRecord};
use lockstep_cpu::{CoreKind, Granularity, UnitId};
use lockstep_eval::shard::merge_shard_archives;
use lockstep_fault::ErrorKind;
use lockstep_obs::{Event, EventSink};

use crate::proto::{granularity_label, PredictResponse};
use crate::registry::Registry;

/// What a table trains on of one manifested error record: exactly the
/// fields `Dataset::to_train_records` reads, so training matches the
/// offline path record for record.
#[derive(Debug, Clone, Copy)]
struct Sample {
    dsr: Dsr,
    unit: UnitId,
    kind: ErrorKind,
}

struct Table {
    generation: u64,
    predictor: Predictor,
    trained_records: u64,
    trained_jobs: u64,
}

/// Caching diagnosis front-end over the registry.
pub struct PredictService {
    registry: Arc<Registry>,
    events: Option<Arc<dyn EventSink>>,
    /// Training samples of completed jobs, in merged record order, by
    /// job id (immutable once present).
    merged: Mutex<HashMap<String, Arc<[Sample]>>>,
    /// Trained tables by `(core, granularity)`, tagged with the
    /// generation they were trained at.
    tables: Mutex<HashMap<(&'static str, &'static str), Table>>,
}

impl std::fmt::Debug for PredictService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictService").finish_non_exhaustive()
    }
}

impl PredictService {
    /// Creates the service over `registry`, emitting
    /// [`Event::PredictionServed`] to `events`.
    pub fn new(registry: Arc<Registry>, events: Option<Arc<dyn EventSink>>) -> PredictService {
        PredictService {
            registry,
            events,
            merged: Mutex::new(HashMap::new()),
            tables: Mutex::new(HashMap::new()),
        }
    }

    /// The number of error records completed job `id` manifested.
    ///
    /// # Errors
    ///
    /// As [`PredictService::merged_samples`].
    pub fn job_records(&self, id: &str) -> Result<u64, String> {
        self.merged_samples(id).map(|samples| samples.len() as u64)
    }

    /// The training samples of completed job `id`, merged from its
    /// shards on first use (merge-on-read) and cached.
    ///
    /// # Errors
    ///
    /// Returns a message when the job's shard files are unreadable or
    /// fail the merge validation.
    fn merged_samples(&self, id: &str) -> Result<Arc<[Sample]>, String> {
        if let Some(samples) = self.merged.lock().expect("no poisoned cache").get(id) {
            return Ok(Arc::clone(samples));
        }
        let shards = self.registry.load_completed(id)?;
        let merged = merge_shard_archives(&shards).map_err(|e| format!("{id}: {e}"))?;
        let samples: Arc<[Sample]> = merged
            .records
            .iter()
            .map(|r| Sample { dsr: r.dsr, unit: r.unit(), kind: r.kind() })
            .collect();
        self.merged.lock().expect("no poisoned cache").insert(id.to_owned(), Arc::clone(&samples));
        Ok(samples)
    }

    /// Diagnoses `dsr` against `core`'s table trained at `generation`
    /// (the scheduler's completion counter); a stale table is
    /// retrained first.
    ///
    /// # Errors
    ///
    /// Returns a message when no job of `core` has completed yet
    /// (there is nothing to train on) or the training data is
    /// unreadable.
    pub fn predict(
        &self,
        dsr: u64,
        granularity: Granularity,
        core: CoreKind,
        generation: u64,
    ) -> Result<PredictResponse, String> {
        let label = granularity_label(granularity);
        let key = (core.label(), label);
        let mut tables = self.tables.lock().expect("no poisoned cache");
        let stale = tables.get(&key).is_none_or(|t| t.generation != generation);
        if stale {
            let table = self.train(granularity, core, generation)?;
            tables.insert(key, table);
        }
        let table = tables.get(&key).expect("just inserted");
        let prediction = table.predictor.predict(Dsr::from_bits(dsr));
        let response = PredictResponse {
            ok: true,
            dsr: format!("{dsr:016x}"),
            granularity: label.to_owned(),
            core: core.label().to_owned(),
            order: prediction.order.iter().map(|&u| granularity.unit_name(u).to_owned()).collect(),
            kind: match prediction.kind {
                ErrorKind::Hard => "hard".to_owned(),
                ErrorKind::Soft => "soft".to_owned(),
            },
            table_hit: prediction.table_hit,
            trained_records: table.trained_records,
            trained_jobs: table.trained_jobs,
        };
        if let Some(sink) = &self.events {
            sink.emit(&Event::PredictionServed {
                dsr_bits: dsr,
                jobs: table.trained_jobs,
                table_hit: prediction.table_hit,
            });
        }
        Ok(response)
    }

    fn train(
        &self,
        granularity: Granularity,
        core: CoreKind,
        generation: u64,
    ) -> Result<Table, String> {
        let jobs = self.registry.jobs().map_err(|e| format!("registry scan failed: {e}"))?;
        let mut merged: Vec<Arc<[Sample]>> = Vec::new();
        for job in &jobs {
            if job.spec.campaign.core != core.label() {
                continue;
            }
            if self.registry.failure(&job.id).is_some() {
                continue;
            }
            if (self.registry.completed_shards(&job.id).len() as u64) < job.shards {
                continue;
            }
            merged.push(self.merged_samples(&job.id)?);
        }
        let train: Vec<TrainRecord> = merged
            .iter()
            .flat_map(|samples| samples.iter())
            .map(|s| TrainRecord { dsr: s.dsr, unit: granularity.index_of(s.unit), kind: s.kind })
            .collect();
        if train.is_empty() {
            return Err(format!(
                "no trained table yet: no completed {} job has manifested error records",
                core.label()
            ));
        }
        Ok(Table {
            generation,
            predictor: Predictor::train(&train, PredictorConfig::new(granularity)),
            trained_records: train.len() as u64,
            trained_jobs: merged.len() as u64,
        })
    }
}
