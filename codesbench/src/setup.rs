//! The timed set-up: data generation, pre-training, schema-classifier
//! training, fine-tuning, and attaching the workload's databases (value
//! index build, and for the online workload storage introspection plus
//! the serving stack's start).
//!
//! The model is SFT CodeS-7B trained exactly as `bench --bin stages`
//! trains it, on a fixed Spider-like training set, so set-up does the
//! same work on every seed. The seed picks the held-out databases and
//! questions the workload sends.

use std::sync::Arc;
use std::time::{Duration, Instant};

use codes::{
    pretrain, table4_models, CodesModel, CodesSystem, PretrainConfig, PromptOptions, SketchCatalog,
    SystemCache,
};
use codes_datasets::{build_benchmark, Benchmark, BenchmarkConfig};
use codes_linker::SchemaClassifier;

use crate::stack::Stack;
use crate::Workload;

/// Seconds spent in each set-up step (the `setup.*` per-layer metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub datasets: f64,
    pub pretrain: f64,
    pub linker_train: f64,
    pub finetune: f64,
    pub storage_attach: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.datasets + self.pretrain + self.linker_train + self.finetune + self.storage_attach
    }
}

/// Everything a workload runs against.
pub struct Ready {
    /// The system under test (with the result cache when the workload
    /// uses one).
    pub system: Arc<CodesSystem>,
    /// An uncached twin with the same weights and classifier: the
    /// reference every served answer is compared with.
    pub reference: Arc<CodesSystem>,
    /// The seeded held-out databases and questions.
    pub dev: Benchmark,
    /// The serving stack, for the online workload.
    pub stack: Option<Stack>,
    pub times: SetupTimes,
}

/// Per-operation storage wire delay of the online workload.
pub const WIRE_DELAY: Duration = Duration::from_micros(500);

/// Full-result (T3) cache capacity of `online-hot-writes`: smaller than
/// its question pool, so the pool's long tail keeps missing.
pub const T3_CAPACITY: usize = 768;

fn dev_config(workload: Workload, seed: u64) -> BenchmarkConfig {
    let (instances, per_db) = match workload {
        Workload::OfflineSpider => (4, 100),
        Workload::OnlineHotWrites => (2, 200),
    };
    BenchmarkConfig {
        instances_per_domain: instances,
        train_samples_per_db: 1,
        dev_samples_per_db: per_db,
        seed: crate::gen::Rng::new(seed).next_u64(),
        ..BenchmarkConfig::spider(0)
    }
}

/// Run the whole set-up once, timing each step.
pub fn build(workload: Workload, seed: u64, clients: usize) -> Result<Ready, String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let train = build_benchmark(
        "spider",
        &BenchmarkConfig {
            train_samples_per_db: 60,
            dev_samples_per_db: 1,
            ..BenchmarkConfig::spider(0x5B1D)
        },
    );
    let mut dev = build_benchmark("spider", &dev_config(workload, seed));
    // Only the held-out databases are served; the rest of the generated
    // set exists for training splits this workload does not use.
    let held_out: std::collections::HashSet<String> =
        dev.dev.iter().map(|s| s.db_id.clone()).collect();
    dev.databases.retain(|d| held_out.contains(&d.name));
    times.datasets = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let catalog = Arc::new(SketchCatalog::build());
    let spec = table4_models()
        .into_iter()
        .find(|m| m.name == "CodeS-7B")
        .ok_or("CodeS-7B is missing from the model table")?;
    let lm = Arc::new(pretrain(
        &catalog,
        &spec,
        &PretrainConfig {
            scale: 24,
            seed: 0xC0DE5,
        },
    ));
    times.pretrain = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let classifier = SchemaClassifier::train(&train, false, 0xC1A5);
    times.linker_train = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tuned = CodesSystem::new(CodesModel::new(lm, catalog), PromptOptions::sft())
        .with_classifier(classifier)
        .finetune_on(&train);
    let reference = CodesSystem::new(
        CodesModel {
            pretrained: Arc::clone(&tuned.model.pretrained),
            catalog: Arc::clone(&tuned.model.catalog),
            finetuned: tuned.model.finetuned.clone(),
        },
        PromptOptions::sft(),
    );
    let reference = match &tuned.classifier {
        Some(clf) => reference.with_classifier(clf.clone()),
        None => reference,
    };
    times.finetune = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (system, stack) = match workload {
        Workload::OfflineSpider => {
            tuned.prepare_databases(dev.databases.iter());
            (Arc::new(tuned), None)
        }
        Workload::OnlineHotWrites => {
            let cache = Arc::new(SystemCache::with_registry(
                &codes_obs::Registry::new(),
                codes::CacheSettings {
                    full_capacity: T3_CAPACITY,
                    ..Default::default()
                },
            ));
            let system = Arc::new(tuned.with_cache(Arc::clone(&cache)));
            let stack = Stack::start(
                Arc::clone(&system),
                dev.databases.clone(),
                WIRE_DELAY,
                Some(cache),
                clients,
            )?;
            (system, Some(stack))
        }
    };
    times.storage_attach = t.elapsed().as_secs_f64();

    Ok(Ready {
        system,
        reference: Arc::new(reference),
        dev,
        stack,
        times,
    })
}
