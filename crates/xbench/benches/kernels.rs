//! Criterion micro-benchmarks of the arithmetic and the application
//! kernels: FloPoCo operations, the two convolution engines, and one
//! pipeline stage.

use criterion::{criterion_group, criterion_main, Criterion};
use retina::filters::{convolve_f32, convolve_vcgra, gaussian, matched_filter};
use retina::synth::{synth_fundus, SynthConfig};
use softfloat::{FpFormat, FpKernel, FpValue};
use std::hint::black_box;

fn bench_softfloat(c: &mut Criterion) {
    let fmt = FpFormat::PAPER;
    let mut rng = logic::SplitMix64::new(3);
    let vals: Vec<(FpValue, FpValue, FpValue)> = (0..256)
        .map(|_| {
            let f = |rng: &mut logic::SplitMix64| {
                FpValue::from_f64((rng.unit_f64() - 0.5) * 100.0, fmt)
            };
            (f(&mut rng), f(&mut rng), f(&mut rng))
        })
        .collect();
    let mut i = 0;
    c.bench_function("flopoco_mac_6_26", |b| {
        b.iter(|| {
            i = (i + 1) & 255;
            let (x, c_, a) = vals[i];
            black_box(x.mac(c_, a))
        })
    });
    c.bench_function("flopoco_add_6_26", |b| {
        b.iter(|| {
            i = (i + 1) & 255;
            let (x, y, _) = vals[i];
            black_box(x.add(y))
        })
    });
    // The same two operators as the serve path runs them: one 64-lane
    // column per call (the engine's unit size), raw encodings, the multiplier's
    // coefficient fixed. Divide the reported time by 64 for ns per lane.
    let kernel = FpKernel::new(fmt);
    let (xs, ys): (Vec<u64>, Vec<u64>) = vals[..64].iter().map(|&(x, y, _)| (x.bits, y.bits)).unzip();
    let coeff = vals[64].1.bits;
    let mut out = vec![0u64; 64];
    c.bench_function("flopoco_mul_const_col64_6_26", |b| {
        b.iter(|| {
            kernel.mul_const_col(black_box(&xs), black_box(coeff), &mut out);
            black_box(&mut out);
        })
    });
    c.bench_function("flopoco_add_col64_6_26", |b| {
        b.iter(|| {
            kernel.add_col(black_box(&xs), black_box(&ys), &mut out);
            black_box(&mut out);
        })
    });
}

fn bench_convolution(c: &mut Criterion) {
    let (img, _) = synth_fundus(&SynthConfig { size: 64, ..Default::default() }, 5);
    let k = gaussian(5, 1.25);
    let mut g = c.benchmark_group("convolution_64x64_5x5");
    g.sample_size(10);
    g.bench_function("f32_reference", |b| {
        b.iter(|| black_box(convolve_f32(&img.g, &k)))
    });
    g.bench_function("vcgra_flopoco", |b| {
        b.iter(|| black_box(convolve_vcgra(&img.g, &k, FpFormat::PAPER)))
    });
    g.finish();
}

fn bench_matched_stage(c: &mut Criterion) {
    let (img, _) = synth_fundus(&SynthConfig { size: 64, ..Default::default() }, 6);
    let k = matched_filter(16, 1.6, 9.0, 0.6);
    let mut g = c.benchmark_group("matched_filter_64x64_16x16");
    g.sample_size(10);
    g.bench_function("f32_reference", |b| {
        b.iter(|| black_box(convolve_f32(&img.g, &k)))
    });
    g.finish();
}

fn bench_gate_sim(c: &mut Criterion) {
    // 64-way bit-parallel simulation of the (6,26) MAC netlist: the
    // workhorse behind every equivalence check.
    let aig = softfloat::gen::build_mac_pe(FpFormat::PAPER, logic::aig::InputKind::Param);
    let words: Vec<u64> = (0..aig.num_inputs() as u64)
        .map(|i| i.wrapping_mul(0x9E37))
        .collect();
    c.bench_function("aig_sim64_mac_6_26", |b| {
        b.iter(|| black_box(logic::sim::simulate_u64(&aig, &words)))
    });
}

criterion_group!(
    benches,
    bench_softfloat,
    bench_convolution,
    bench_matched_stage,
    bench_gate_sim
);
criterion_main!(benches);
