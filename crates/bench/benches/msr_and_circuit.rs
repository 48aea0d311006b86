//! Criterion benches for the substrate hot paths: MSR codecs, the
//! register file, and the circuit timing/fault models the EXECUTE
//! thread exercises a million times per grid point.

use criterion::{criterion_group, criterion_main, Criterion};
use plugvolt_circuit::fault::{sample_binomial, FaultModel};
use plugvolt_circuit::multiplier::MultiplierUnit;
use plugvolt_circuit::timing::TimingBudget;
use plugvolt_cpu::core::CoreId;
use plugvolt_cpu::model::CpuModel;
use plugvolt_cpu::package::CpuPackage;
use plugvolt_des::rng::SimRng;
use plugvolt_des::time::SimTime;
use plugvolt_msr::addr::Msr;
use plugvolt_msr::oc_mailbox::OcRequest;
use plugvolt_msr::perf_status::PerfStatus;
use std::hint::black_box;

fn bench_mailbox_codec(c: &mut Criterion) {
    c.bench_function("msr/oc-mailbox-encode-decode", |b| {
        let mut off = 0i32;
        b.iter(|| {
            off = -((off.unsigned_abs() as i32 + 7) % 300);
            let raw = OcRequest::write_offset(off, plugvolt_msr::oc_mailbox::Plane::Core).encode();
            black_box(OcRequest::decode(raw).expect("round trip"))
        });
    });
}

fn bench_perf_status_codec(c: &mut Criterion) {
    c.bench_function("msr/perf-status-encode-decode", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let s = PerfStatus::new(400 + (i % 45) * 100, 600.0 + f64::from(i % 600));
            black_box(PerfStatus::decode(s.encode()))
        });
    });
}

fn bench_package_msr_access(c: &mut Criterion) {
    c.bench_function("cpu/rdmsr-perf-status", |b| {
        let cpu = CpuPackage::new(CpuModel::CometLake, 1);
        b.iter(|| {
            black_box(
                cpu.rdmsr(SimTime::ZERO, CoreId(0), Msr::IA32_PERF_STATUS)
                    .expect("reads"),
            )
        });
    });
}

fn bench_multiplier_paths(c: &mut Criterion) {
    let mul = MultiplierUnit::default();
    c.bench_function("circuit/path-delay", |b| {
        let mut v = 700.0;
        b.iter(|| {
            v = if v > 1_200.0 { 700.0 } else { v + 0.37 };
            black_box(mul.worst_path_delay_ps(v))
        });
    });
}

fn bench_million_imul_loop(c: &mut Criterion) {
    // The EXECUTE thread primitive: 1M imuls sampled in O(faults).
    let spec = CpuModel::CometLake.spec();
    let mul = spec.multiplier();
    let fm = spec.fault_model();
    let budget = TimingBudget::for_frequency_mhz(4_000, spec.t_setup_ps, spec.t_eps_ps);
    c.bench_function("circuit/1M-imul-loop", |b| {
        let mut rng = SimRng::from_seed_label(1, "bench-imul");
        b.iter(|| black_box(mul.run_imul_loop(1_000_000, &budget, 1_000.0, &fm, &mut rng)));
    });
}

fn bench_binomial_sampler(c: &mut Criterion) {
    c.bench_function("circuit/binomial-1M-small-p", |b| {
        let mut rng = SimRng::from_seed_label(2, "bench-binom");
        b.iter(|| black_box(sample_binomial(1_000_000, 1e-5, &mut rng)));
    });
}

fn bench_fault_sampling(c: &mut Criterion) {
    let fm = FaultModel::default();
    c.bench_function("circuit/fault-sample", |b| {
        let mut rng = SimRng::from_seed_label(3, "bench-fault");
        let mut slack = 50.0;
        b.iter(|| {
            slack = if slack < -50.0 { 50.0 } else { slack - 0.1 };
            black_box(fm.sample(slack, 64, &mut rng))
        });
    });
}

criterion_group!(
    benches,
    bench_mailbox_codec,
    bench_perf_status_codec,
    bench_package_msr_access,
    bench_multiplier_paths,
    bench_million_imul_loop,
    bench_binomial_sampler,
    bench_fault_sampling
);
criterion_main!(benches);
