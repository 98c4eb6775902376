//! Reproduction of **Fig. 6** (Sec. VII-B): empirical CDFs of the
//! execution-time ratio over the time-optimal variant for `n = 7` chains:
//! the base set `E_s`, the sets expanded by one variant using FLOPs
//! (`E_s1,F`) and performance models (`E_s1,M`), the left-to-right variant
//! `L`, and the Armadillo-style baseline.
//!
//! Paper setup: 1e3 shapes x 1e3 instances, sizes in `[50, 1000]`, kernels
//! timed on a six-point grid, 14-core OpenBLAS. Our kernels are
//! single-threaded from-scratch implementations, so the default sizes are
//! scaled down (see DESIGN.md); the flags restore any part of the paper
//! scale:
//!
//! ```text
//! cargo run -p gmc-bench --release --bin fig6_time -- \
//!     --shapes 50 --validate 100 --lo 50 --hi 1000 --paper-grid
//! ```

use gmc_bench::armadillo::armadillo_execute;
use gmc_bench::ecdf::{ascii_plot, csv_curves, Ecdf};
use gmc_bench::report::{arg_flag, arg_u64, arg_usize, arg_value, print_header, print_row};
use gmc_bench::workload::{instantiate, sample_shapes, ShapeSampler};
use gmc_core::all_variants;
use gmc_core::{
    builder::left_to_right_variant, expand::CostMatrix, expand_set, select_base_set_in, Objective,
    Variant,
};
use gmc_ir::InstanceSampler;
use gmc_linalg::Matrix;
use gmc_perfmodel::{measure_models, paper_grid, quick_grid, MeasureOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_variant(v: &Variant, leaves: &[Matrix]) -> f64 {
    let t0 = Instant::now();
    let _ = v.execute(leaves).expect("variant executes");
    t0.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n = arg_usize(&args, "--n", 7);
    let num_shapes = arg_usize(&args, "--shapes", 8);
    let train = arg_usize(&args, "--train", 1000);
    let validate = arg_usize(&args, "--validate", 8);
    let lo = arg_u64(&args, "--lo", 24);
    let hi = arg_u64(&args, "--hi", 160);
    let seed = arg_u64(&args, "--seed", 0xf166);
    let use_paper_grid = arg_flag(&args, "--paper-grid");

    println!("Fig. 6 reproduction: execution-time ratio over the time-optimal variant (n = {n})");
    println!("shapes = {num_shapes}, validation = {validate}/shape, sizes in [{lo}, {hi}]");
    println!("(paper: 1e3 shapes, 1e3 instances each, sizes in [50, 1000])");

    // Optionally cache measured models on disk (`--models <path>`).
    let models_path = gmc_bench::report::arg_value(&args, "--models");
    let cached = models_path
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .and_then(|text| gmc_perfmodel::from_text(&text).ok());
    let models = if let Some(models) = cached {
        println!(
            "\nloaded performance models from {}",
            models_path.as_deref().unwrap_or("?")
        );
        models
    } else {
        println!("\nmeasuring per-kernel performance models...");
        let grid = if use_paper_grid {
            paper_grid()
        } else {
            quick_grid()
        };
        let t0 = Instant::now();
        let models = measure_models(&MeasureOptions {
            grid,
            reps: 2,
            seed,
        });
        println!("models ready in {:.1}s", t0.elapsed().as_secs_f64());
        if let Some(path) = &models_path {
            std::fs::write(path, gmc_perfmodel::to_text(&models)).expect("write models");
            println!("saved models to {path}");
        }
        models
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let sampler = ShapeSampler::half_rectangular();
    let shapes = sample_shapes(&sampler, &mut rng, n, num_shapes);

    let mut ecdf_es = Ecdf::new();
    let mut ecdf_es1f = Ecdf::new();
    let mut ecdf_es1m = Ecdf::new();
    let mut ecdf_l = Ecdf::new();
    let mut ecdf_arma = Ecdf::new();
    let mut speedup_sum = [0.0f64; 3];
    let mut speedup_n = 0usize;

    for (si, shape) in shapes.iter().enumerate() {
        let inst_sampler = InstanceSampler::new(shape, lo, hi);
        let training = inst_sampler.sample_many(&mut rng, train);
        let pool = all_variants(shape).expect("valid shape");
        let flop_matrix = CostMatrix::flops(&pool, &training);

        let base_idx = select_base_set_in(shape, &pool, &flop_matrix).expect("base set");
        // Expansion by one variant: once with FLOPs, once with models.
        let es1f = expand_set(
            &flop_matrix,
            &base_idx,
            base_idx.len() + 1,
            Objective::AvgPenalty,
        );
        let model_matrix = CostMatrix::with(&pool, &training, |v, q| models.variant_time(v, q));
        let es1m = expand_set(
            &model_matrix,
            &base_idx,
            base_idx.len() + 1,
            Objective::AvgPenalty,
        );
        let l_variant = left_to_right_variant(shape).expect("L");
        let l_idx = pool
            .iter()
            .position(|p| p.paren() == l_variant.paren())
            .expect("L is in the pool");

        for q in inst_sampler.sample_many(&mut rng, validate) {
            let leaves = instantiate(shape, &q, &mut rng);
            // Measure every variant once; the optimum is the fastest.
            let times: Vec<f64> = pool.iter().map(|v| time_variant(v, &leaves)).collect();
            let t_opt = times.iter().copied().fold(f64::INFINITY, f64::min);

            // Each flavor dispatches with its cost rule, then we charge the
            // measured time of the dispatched variant.
            let dispatch_flops = |set: &[usize]| -> f64 {
                let best = set
                    .iter()
                    .min_by(|&&a, &&b| pool[a].flops(&q).total_cmp(&pool[b].flops(&q)))
                    .copied()
                    .expect("non-empty set");
                times[best]
            };
            let dispatch_model = |set: &[usize]| -> f64 {
                let best = set
                    .iter()
                    .min_by(|&&a, &&b| {
                        models
                            .variant_time(&pool[a], &q)
                            .total_cmp(&models.variant_time(&pool[b], &q))
                    })
                    .copied()
                    .expect("non-empty set");
                times[best]
            };

            let t_es = dispatch_flops(&base_idx);
            let t_es1f = dispatch_flops(&es1f);
            let t_es1m = dispatch_model(&es1m);
            let t_l = times[l_idx];
            let t0 = Instant::now();
            let _ = armadillo_execute(shape, &leaves).expect("armadillo executes");
            let t_arma = t0.elapsed().as_secs_f64().max(1e-9);

            ecdf_es.push(t_es / t_opt);
            ecdf_es1f.push(t_es1f / t_opt);
            ecdf_es1m.push(t_es1m / t_opt);
            ecdf_l.push(t_l / t_opt);
            ecdf_arma.push(t_arma / t_opt);
            speedup_sum[0] += t_arma / t_es;
            speedup_sum[1] += t_arma / t_es1f;
            speedup_sum[2] += t_arma / t_es1m;
            speedup_n += 1;
        }
        println!("shape {}/{} done: {}", si + 1, shapes.len(), shape);
    }

    print_header("execution-time ratio over optimum");
    print_row("E_s", &ecdf_es.summary());
    print_row("E_s1,F", &ecdf_es1f.summary());
    print_row("E_s1,M", &ecdf_es1m.summary());
    print_row("L", &ecdf_l.summary());
    print_row("Arma", &ecdf_arma.summary());

    let series = [
        ("E_s", &ecdf_es),
        ("E_s1,F", &ecdf_es1f),
        ("E_s1,M", &ecdf_es1m),
        ("L", &ecdf_l),
        ("Arma", &ecdf_arma),
    ];
    println!("\n{}", ascii_plot(&series, 1.0, 3.0, 60, 16));
    if let Some(dir) = arg_value(&args, "--csv") {
        let path = format!("{dir}/fig6_n{n}.csv");
        std::fs::create_dir_all(&dir).expect("create csv dir");
        std::fs::write(&path, csv_curves(&series, 1.0, 3.0, 101)).expect("write csv");
        println!("wrote {path}");
    }

    let k = speedup_n.max(1) as f64;
    println!(
        "\naverage speed-up over Armadillo: E_s {:.2}x, E_s1,F {:.2}x, E_s1,M {:.2}x",
        speedup_sum[0] / k,
        speedup_sum[1] / k,
        speedup_sum[2] / k
    );
    println!("paper reference: 2.30x, 2.32x, 2.34x; L and Armadillo trail all generated sets");
}
