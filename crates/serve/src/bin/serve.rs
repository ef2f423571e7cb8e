//! The `desalign-serve` daemon: train-or-load a model, precompute serving
//! embeddings, and answer alignment queries over HTTP until drained.
//!
//! With `DESALIGN_SERVE_CHECKPOINT` pointing at an existing file the model
//! is revived through the digest-checked inference loader
//! (`load_checkpoint_inference`) — the restart bit-identity contract in
//! docs/SERVING.md rests on that path. Pointing it at a missing file
//! trains the synthetic model and saves the checkpoint there, so two
//! consecutive invocations with the same environment serve identical
//! bits: first train+save, then load.
//!
//! Knobs (all env, see docs/SERVING.md): `DESALIGN_SEED`,
//! `DESALIGN_SCALE`, `DESALIGN_EPOCHS`, `DESALIGN_SERVE_BACKEND`
//! (`exact` | `ivf`), `DESALIGN_SERVE_CHECKPOINT`, plus the
//! `DESALIGN_SERVE_*` server knobs read by `ServeConfig::from_env`. An
//! unparsable numeric knob exits 1 with an error naming it.

use desalign_core::{DesalignConfig, DesalignModel, RetrievalBackend};
use desalign_mmkg::{DatasetSpec, SynthConfig};
use desalign_serve::{AlignEngine, ServeConfig, Server};
use desalign_util::count_var;
use std::io::Write;
use std::path::PathBuf;

fn or_die<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("desalign-serve: {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// The model configuration is a pure function of the environment, so a
/// restarted server reconstructs the exact `config_digest` its checkpoint
/// was written under.
fn model_config(epochs: usize) -> DesalignConfig {
    let mut cfg = DesalignConfig::fast();
    cfg.epochs = epochs;
    cfg.retrieval.backend = match std::env::var("DESALIGN_SERVE_BACKEND").as_deref() {
        Err(_) | Ok("exact") => RetrievalBackend::Exact,
        Ok("ivf") => RetrievalBackend::Ivf,
        Ok(other) => {
            eprintln!("desalign-serve: unknown DESALIGN_SERVE_BACKEND '{other}' (use exact|ivf)");
            std::process::exit(2);
        }
    };
    cfg
}

fn main() {
    let env = |k: &str| std::env::var(k).ok();
    let seed: u64 = or_die("environment", count_var(&env, "DESALIGN_SEED", 7));
    let scale: usize = or_die("environment", count_var(&env, "DESALIGN_SCALE", 60));
    let epochs: usize = or_die("environment", count_var(&env, "DESALIGN_EPOCHS", 4));
    let serve_cfg = or_die("environment", ServeConfig::from_env());

    let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(scale).generate(seed);
    let mut model = DesalignModel::new(model_config(epochs), &ds, seed);

    match std::env::var("DESALIGN_SERVE_CHECKPOINT").ok().map(PathBuf::from) {
        Some(path) if path.exists() => {
            or_die(&format!("load checkpoint {}", path.display()), model.load_checkpoint_inference(&ds, &path));
            eprintln!("desalign-serve: loaded checkpoint {}", path.display());
        }
        Some(path) => {
            eprintln!("desalign-serve: training {epochs} epochs (no checkpoint at {})", path.display());
            let mut state = model.begin_training(&ds);
            model.train_epochs(&mut state, usize::MAX);
            or_die(&format!("save checkpoint {}", path.display()), model.save_checkpoint(&state, &path));
            model.end_training(state);
        }
        None => {
            eprintln!("desalign-serve: training {epochs} epochs (no DESALIGN_SERVE_CHECKPOINT)");
            model.fit(&ds);
        }
    }

    let engine = or_die("build serving engine", AlignEngine::from_model(&model, serve_cfg.cache_capacity));
    eprintln!(
        "desalign-serve: engine ready ({} source / {} target entities, dim {}, backend {:?})",
        engine.num_queries(),
        engine.num_items(),
        engine.dim(),
        engine.backend(),
    );

    // With a checkpoint source, expose POST /admin/reload: the reloader
    // rebuilds a fresh model shell (same env-derived config, so the
    // checkpoint header digests still match), loads the requested — or
    // boot — checkpoint through the digest-checked inference loader, and
    // hands back a candidate engine. Any failure leaves the serving
    // engine untouched.
    let boot_checkpoint = std::env::var("DESALIGN_SERVE_CHECKPOINT").ok().map(PathBuf::from);
    let server = match boot_checkpoint {
        Some(boot) => {
            let cache_capacity = serve_cfg.cache_capacity;
            let reloader = Box::new(move |requested: Option<&str>| {
                let path = requested.map(PathBuf::from).unwrap_or_else(|| boot.clone());
                let ds = SynthConfig::preset(DatasetSpec::FbDb15k).scaled(scale).generate(seed);
                let mut model = DesalignModel::new(model_config(epochs), &ds, seed);
                model
                    .load_checkpoint_inference(&ds, &path)
                    .map_err(|e| desalign_util::DesalignError::io(path.display().to_string(), e))?;
                AlignEngine::from_model(&model, cache_capacity)
            });
            or_die("bind server", Server::start_reloadable(engine, &serve_cfg, reloader))
        }
        None => or_die("bind server", Server::start(engine, &serve_cfg)),
    };

    // ci.sh greps this exact line for the ephemeral port.
    println!("desalign-serve listening on {}", server.addr());
    or_die("flush stdout", std::io::stdout().flush());

    // Blocks until a client POSTs /admin/shutdown (or the process is
    // signalled); the drain finishes in-flight requests first.
    server.wait();
    println!("desalign-serve drained");
}
