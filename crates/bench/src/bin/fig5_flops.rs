//! Reproduction of **Fig. 5** (Sec. VII-A): empirical CDFs of the ratio
//! over the optimal number of FLOPs for the base set `E_s` (Theorem 2),
//! the expanded sets `E_s1` and `E_s2` (Algorithm 1, one and two steps),
//! and the left-to-right variant `L`, for chain lengths `n = 5, 6, 7`.
//!
//! Paper setup: all `10^n - 9^n` shapes, training on 1e5 instances with
//! sizes in `[2, 1000]`, validation on 1e3 instances per shape. Defaults
//! here are scaled to finish in minutes; pass `--paper-scale` dimensions
//! via the flags to approach the full experiment:
//!
//! ```text
//! cargo run -p gmc-bench --release --bin fig5_flops -- \
//!     --shapes 200 --train 5000 --validate 1000
//! ```

use gmc_bench::ecdf::{ascii_plot, csv_curves, Ecdf};
use gmc_bench::report::arg_flag;
use gmc_bench::report::{arg_u64, arg_usize, arg_value, print_header, print_row};
use gmc_bench::workload::{enumerate_shapes, sample_shapes, ShapeSampler};
use gmc_core::all_variants;
use gmc_core::{
    builder::left_to_right_variant, expand::CostMatrix, expand_set, select_base_set_in, Objective,
};
use gmc_ir::InstanceSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shapes_per_n = arg_usize(&args, "--shapes", 40);
    let train = arg_usize(&args, "--train", 2000);
    let validate = arg_usize(&args, "--validate", 200);
    let lo = arg_u64(&args, "--lo", 2);
    let hi = arg_u64(&args, "--hi", 1000);
    let seed = arg_u64(&args, "--seed", 0xf165);

    println!("Fig. 5 reproduction: FLOP ratio over optimum");
    println!(
        "shapes/n = {shapes_per_n}, training = {train}, validation = {validate}, sizes in [{lo}, {hi}]"
    );
    println!("(paper: all 10^n - 9^n shapes, 1e5 training, 1e3 validation)");

    let all_shapes = arg_flag(&args, "--all-shapes");
    if all_shapes {
        println!("--all-shapes: exhaustively enumerating the 10^n - 9^n shapes per n (slow)");
    }

    // `--only-n 5` restricts the sweep (useful with --all-shapes, whose
    // shape count grows by ~10x per unit of n).
    let only_n = arg_value(&args, "--only-n").and_then(|v| v.parse::<usize>().ok());

    let sampler = ShapeSampler::uniform();
    for n in [5usize, 6, 7] {
        if only_n.is_some_and(|only| only != n) {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed + n as u64);
        let shapes = if all_shapes {
            enumerate_shapes(n).collect()
        } else {
            sample_shapes(&sampler, &mut rng, n, shapes_per_n)
        };

        let mut ecdf_es = Ecdf::new();
        let mut ecdf_es1 = Ecdf::new();
        let mut ecdf_es2 = Ecdf::new();
        let mut ecdf_l = Ecdf::new();

        for shape in &shapes {
            let inst_sampler = InstanceSampler::new(shape, lo, hi);
            let training = inst_sampler.sample_many(&mut rng, train);
            let pool = all_variants(shape).expect("valid shape");
            let matrix = CostMatrix::flops(&pool, &training);

            let base_idx = select_base_set_in(shape, &pool, &matrix).expect("base set");
            // One and two greedy expansion steps, minimizing average penalty
            // on the training set (Sec. VII-A).
            let es1 = expand_set(
                &matrix,
                &base_idx,
                base_idx.len() + 1,
                Objective::AvgPenalty,
            );
            let es2 = expand_set(
                &matrix,
                &base_idx,
                base_idx.len() + 2,
                Objective::AvgPenalty,
            );
            let l = left_to_right_variant(shape).expect("L variant");

            for q in inst_sampler.sample_many(&mut rng, validate) {
                let costs: Vec<f64> = pool.iter().map(|v| v.flops(&q)).collect();
                let opt = costs.iter().copied().fold(f64::INFINITY, f64::min);
                let best =
                    |set: &[usize]| set.iter().map(|&i| costs[i]).fold(f64::INFINITY, f64::min);
                ecdf_es.push(best(&base_idx) / opt);
                ecdf_es1.push(best(&es1) / opt);
                ecdf_es2.push(best(&es2) / opt);
                ecdf_l.push(l.flops(&q) / opt);
            }
        }

        print_header(&format!("n = {n} ({} shapes)", shapes.len()));
        print_row("E_s", &ecdf_es.summary());
        print_row("E_s1", &ecdf_es1.summary());
        print_row("E_s2", &ecdf_es2.summary());
        print_row("L", &ecdf_l.summary());

        // The figure itself: eCDF curves over the paper's x-range.
        let series = [
            ("E_s", &ecdf_es),
            ("E_s1", &ecdf_es1),
            ("E_s2", &ecdf_es2),
            ("L", &ecdf_l),
        ];
        println!("\n{}", ascii_plot(&series, 1.0, 1.5, 60, 16));
        if let Some(dir) = arg_value(&args, "--csv") {
            let path = format!("{dir}/fig5_n{n}.csv");
            std::fs::create_dir_all(&dir).expect("create csv dir");
            std::fs::write(&path, csv_curves(&series, 1.0, 1.5, 101)).expect("write csv");
            println!("wrote {path}");
        }
    }

    println!("\npaper reference points:");
    println!("  E_s : ratio < 2.1 on all instances; <= 1.2 on ~96%");
    println!("  E_s1: max observed 1.62; <= 1.05 on > 92%");
    println!("  E_s2: max observed 1.38; <= 1.05 on > 99%");
    println!("  L   : ratio > 465 on some instances; > 1.5 on > 23%");
}
