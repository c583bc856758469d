//! `stencil-autotune` — command-line interface to the SORL autotuner.
//!
//! ```text
//! stencil-autotune train --size 3840 --out model.json
//! stencil-autotune tune  --model model.json --kernel laplacian --grid 256x256x256
//! stencil-autotune codegen --kernel blur --grid 1024x1024 --bx 128 --by 8 --u 4 --c 2
//! stencil-autotune inspect --kernel tricubic
//! stencil-autotune bench --kernel laplacian --grid 96x96x96 --bx 64 --by 16 --bz 8
//! ```
//!
//! `tune` picks a configuration for an unseen stencil in milliseconds;
//! `bench` actually runs the kernel on this machine with the real engine.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stencil_autotune::exec::{BenchmarkKernel, Engine, MeasureConfig};
use stencil_autotune::gen::emit_c_kernel;
use stencil_autotune::model::{GridSize, StencilInstance, StencilKernel, TuningVector};
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_autotune::sorl::ranker::StencilRanker;
use stencil_autotune::sorl::session::TuningSession;

const USAGE: &str = "\
stencil-autotune: ordinal-regression autotuner for stencil computations

USAGE:
    stencil-autotune <COMMAND> [--flag value]...

COMMANDS:
    train     train a ranking model            --size N  --out FILE [--seed N]
    tune      pick a tuning for a stencil      --model FILE --kernel NAME --grid XxY[xZ]
    codegen   emit the C code of a variant     --kernel NAME --grid XxY[xZ]
                                               [--bx N --by N --bz N --u N --c N]
    inspect   describe a kernel's model        --kernel NAME
    bench     run a variant with the engine    --kernel NAME --grid XxY[xZ]
                                               [--bx N --by N --bz N --u N --c N] [--threads N]
    kernels   list the built-in kernels

Built-in kernels: blur, edge, game-of-life, wave, tricubic, divergence,
gradient, laplacian, laplacian6.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let flags = parse_flags(&args[1..])?;
    match command.as_str() {
        "train" => cmd_train(&flags),
        "tune" => cmd_tune(&flags),
        "codegen" => cmd_codegen(&flags),
        "inspect" => cmd_inspect(&flags),
        "bench" => cmd_bench(&flags),
        "kernels" => {
            for k in StencilKernel::table3_kernels() {
                println!("{k}");
            }
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{flag}`"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v.parse().map_err(|_| format!("invalid value for --{name}: `{v}`")),
        None => Ok(default),
    }
}

fn require<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(String::as_str).ok_or_else(|| format!("--{name} is required"))
}

fn parse_grid(s: &str) -> Result<GridSize, String> {
    let parts: Vec<u32> = s
        .split('x')
        .map(|p| p.parse().map_err(|_| format!("invalid grid `{s}`")))
        .collect::<Result<_, _>>()?;
    match parts.as_slice() {
        [x, y] => Ok(GridSize::d2(*x, *y)),
        [x, y, z] => Ok(GridSize::d3(*x, *y, *z)),
        _ => Err(format!("grid must be XxY or XxYxZ, got `{s}`")),
    }
}

fn parse_kernel(name: &str) -> Result<StencilKernel, String> {
    StencilKernel::table3_kernels()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown kernel `{name}` (see `stencil-autotune kernels`)"))
}

fn tuning_from_flags(flags: &Flags, dim: u8) -> Result<TuningVector, String> {
    Ok(TuningVector::new(
        get(flags, "bx", 64)?,
        get(flags, "by", 16)?,
        if dim == 2 { 1 } else { get(flags, "bz", 8)? },
        get(flags, "u", 0)?,
        get(flags, "c", 1)?,
    ))
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let size: usize = get(flags, "size", 3840)?;
    let seed: u64 = get(flags, "seed", 0x534F_524C)?;
    let out: PathBuf = PathBuf::from(require(flags, "out")?);
    eprintln!("training on the simulated Xeon E5-2680 v3 ({size} samples)...");
    let outcome =
        TrainingPipeline::new(PipelineConfig { training_size: size, seed, ..Default::default() })
            .run();
    eprintln!(
        "  {} samples, {} pairs, pair accuracy {:.3}, trained in {:.2}s",
        outcome.samples,
        outcome.report.pairs,
        outcome.report.train_pair_accuracy,
        outcome.timings.training_wall
    );
    outcome.ranker.save_json(&out).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("model written to {}", out.display());
    Ok(())
}

fn cmd_tune(flags: &Flags) -> Result<(), String> {
    let model_path = PathBuf::from(require(flags, "model")?);
    let kernel = parse_kernel(require(flags, "kernel")?)?;
    let grid = parse_grid(require(flags, "grid")?)?;
    let instance = StencilInstance::new(kernel, grid).map_err(|e| e.to_string())?;
    let ranker = StencilRanker::load_json(&model_path)
        .map_err(|e| format!("loading {}: {e}", model_path.display()))?;
    let mut tuner = TuningSession::new(ranker);
    let d = tuner.tune(&instance);
    println!(
        "{instance}: {} (ranked {} candidates in {:.2} ms)",
        d.tuning,
        d.candidates,
        d.seconds * 1e3
    );
    Ok(())
}

fn cmd_codegen(flags: &Flags) -> Result<(), String> {
    let kernel = parse_kernel(require(flags, "kernel")?)?;
    let grid = flags.get("grid").map(|g| parse_grid(g)).transpose()?;
    let dim = kernel.dim();
    let tuning = tuning_from_flags(flags, dim)?;
    if let Some(grid) = grid {
        StencilInstance::new(kernel.clone(), grid).map_err(|e| e.to_string())?;
    }
    print!("{}", emit_c_kernel(&kernel, &tuning));
    Ok(())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let kernel = parse_kernel(require(flags, "kernel")?)?;
    let p = kernel.pattern();
    println!("{kernel}");
    println!("  pattern:          {p}");
    println!("  distinct points:  {}", p.len());
    println!("  total accesses:   {}", p.total_accesses());
    println!("  radius (x,y,z):   {:?}", p.radius_per_axis());
    println!("  reads centre:     {}", p.reads_center());
    println!("  density:          {:.3}", p.density());
    println!("  flops per point:  {}", kernel.flops_per_point());
    println!("  bytes read/point: {}", kernel.bytes_read_per_point());
    Ok(())
}

fn cmd_bench(flags: &Flags) -> Result<(), String> {
    let name = require(flags, "kernel")?;
    let kernel =
        BenchmarkKernel::from_name(name).ok_or_else(|| format!("unknown kernel `{name}`"))?;
    let grid = parse_grid(require(flags, "grid")?)?;
    StencilInstance::new(kernel.model(), grid).map_err(|e| e.to_string())?;
    let tuning = tuning_from_flags(flags, kernel.model().dim())?;
    let threads: usize =
        get(flags, "threads", std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))?;
    let mut engine = Engine::new(threads);
    let secs = kernel.measure(&mut engine, grid, &tuning, MeasureConfig { warmup: 1, reps: 5 });
    let instance = StencilInstance::new(kernel.model(), grid).map_err(|e| e.to_string())?;
    println!(
        "{instance} @ {tuning}: {:.3} ms/sweep ({:.2} GFlop/s, {} threads)",
        secs * 1e3,
        instance.total_flops() as f64 / secs / 1e9,
        threads
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let flags =
            parse_flags(&["--size".into(), "960".into(), "--out".into(), "m.json".into()]).unwrap();
        assert_eq!(get::<usize>(&flags, "size", 0).unwrap(), 960);
        assert_eq!(require(&flags, "out").unwrap(), "m.json");
        assert!(require(&flags, "missing").is_err());
        assert!(parse_flags(&["size".into()]).is_err());
        assert!(parse_flags(&["--size".into()]).is_err());
    }

    #[test]
    fn grid_parsing() {
        assert_eq!(parse_grid("1024x768").unwrap(), GridSize::d2(1024, 768));
        assert_eq!(parse_grid("64x32x16").unwrap(), GridSize::d3(64, 32, 16));
        assert!(parse_grid("64").is_err());
        assert!(parse_grid("axb").is_err());
    }

    #[test]
    fn kernel_lookup() {
        assert!(parse_kernel("laplacian").is_ok());
        assert!(parse_kernel("game-of-life").is_ok());
        assert!(parse_kernel("nope").is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        assert!(run(&["frobnicate".into()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn kernels_and_inspect_commands_work() {
        run(&["kernels".into()]).unwrap();
        let mut flags = Flags::new();
        flags.insert("kernel".into(), "tricubic".into());
        cmd_inspect(&flags).unwrap();
    }

    #[test]
    fn codegen_command_emits_c() {
        let mut flags = Flags::new();
        flags.insert("kernel".into(), "blur".into());
        flags.insert("bx".into(), "128".into());
        cmd_codegen(&flags).unwrap();
    }
}
