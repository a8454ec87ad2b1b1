//! Seeded property tests of the SIMT executor against CPU oracles:
//! random arithmetic expression trees (with divergent selects) agree
//! with a CPU evaluator, masked stores touch exactly the selected
//! threads, and data-dependent loops count exactly.
//!
//! Every case runs on every backend in [`BackendKind::ALL`], so the SIMD
//! engine has an oracle that does not depend on the scalar engine. The
//! inputs come from a self-contained splitmix64 generator, so the suite
//! needs no external crates and runs offline. A failure message names
//! the case seed and the backend.

use gwc_simt::backend::BackendKind;
use gwc_simt::builder::KernelBuilder;
use gwc_simt::exec::Device;
use gwc_simt::instr::{Reg, Value};
use gwc_simt::launch::LaunchConfig;

const CASES: u64 = 64;

/// splitmix64: a self-contained generator so this test needs no deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A tiny expression language we can build both as IR and on the CPU.
#[derive(Debug, Clone)]
enum Expr {
    /// The thread id.
    Tid,
    /// A constant.
    Const(u32),
    /// Wrapping addition.
    Add(Box<Expr>, Box<Expr>),
    /// Wrapping multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Bitwise xor.
    Xor(Box<Expr>, Box<Expr>),
    /// Min of both sides.
    Min(Box<Expr>, Box<Expr>),
    /// Conditional: `if a < b { c } else { d }`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>, Box<Expr>),
}

/// A random tree at most `depth` operators deep; a third of the inner
/// positions stop early at a leaf.
fn random_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(2) == 0 {
            Expr::Tid
        } else {
            Expr::Const(rng.below(1000) as u32)
        };
    }
    let kind = rng.below(5);
    let mut sub = || Box::new(random_expr(rng, depth - 1));
    match kind {
        0 => Expr::Add(sub(), sub()),
        1 => Expr::Mul(sub(), sub()),
        2 => Expr::Xor(sub(), sub()),
        3 => Expr::Min(sub(), sub()),
        _ => Expr::Select(sub(), sub(), sub(), sub()),
    }
}

fn eval_cpu(e: &Expr, tid: u32) -> u32 {
    match e {
        Expr::Tid => tid,
        Expr::Const(c) => *c,
        Expr::Add(a, b) => eval_cpu(a, tid).wrapping_add(eval_cpu(b, tid)),
        Expr::Mul(a, b) => eval_cpu(a, tid).wrapping_mul(eval_cpu(b, tid)),
        Expr::Xor(a, b) => eval_cpu(a, tid) ^ eval_cpu(b, tid),
        Expr::Min(a, b) => eval_cpu(a, tid).min(eval_cpu(b, tid)),
        Expr::Select(a, b, c, d) => {
            if eval_cpu(a, tid) < eval_cpu(b, tid) {
                eval_cpu(c, tid)
            } else {
                eval_cpu(d, tid)
            }
        }
    }
}

/// Emits the expression as IR. `Select` lowers to real divergent
/// control flow (if/else writing a variable) so the reconvergence stack
/// gets exercised, not just `sel` instructions.
fn emit(b: &mut KernelBuilder, e: &Expr, tid: Reg) -> Reg {
    match e {
        Expr::Tid => tid,
        Expr::Const(c) => b.var_u32(Value::U32(*c)),
        Expr::Add(x, y) => {
            let rx = emit(b, x, tid);
            let ry = emit(b, y, tid);
            b.add_u32(rx, ry)
        }
        Expr::Mul(x, y) => {
            let rx = emit(b, x, tid);
            let ry = emit(b, y, tid);
            b.mul_u32(rx, ry)
        }
        Expr::Xor(x, y) => {
            let rx = emit(b, x, tid);
            let ry = emit(b, y, tid);
            b.xor_u32(rx, ry)
        }
        Expr::Min(x, y) => {
            let rx = emit(b, x, tid);
            let ry = emit(b, y, tid);
            b.min_u32(rx, ry)
        }
        Expr::Select(x, y, t, f) => {
            let rx = emit(b, x, tid);
            let ry = emit(b, y, tid);
            let p = b.lt_u32(rx, ry);
            let out = b.var_u32(Value::U32(0));
            b.if_else(
                p,
                |b| {
                    let rt = emit(b, t, tid);
                    b.assign(out, rt);
                },
                |b| {
                    let rf = emit(b, f, tid);
                    b.assign(out, rf);
                },
            );
            out
        }
    }
}

#[test]
fn random_expressions_match_cpu() {
    for seed in 0..CASES {
        let e = random_expr(&mut Rng(seed), 3);
        let mut b = KernelBuilder::new("expr");
        let out = b.param_u32("out");
        let tid = b.global_tid_x();
        let result = emit(&mut b, &e, tid);
        let oa = b.index(out, tid, 4);
        b.st_global_u32(oa, result);
        let kernel = b.build().expect("valid");

        let n = 64usize;
        for backend in BackendKind::ALL {
            let mut dev = Device::with_backend(backend);
            let hout = dev.alloc_zeroed_u32(n);
            dev.launch(&kernel, &LaunchConfig::new(2, 32), &[hout.arg()])
                .expect("runs");
            let got = dev.read_u32(&hout);
            for t in 0..n as u32 {
                assert_eq!(
                    got[t as usize],
                    eval_cpu(&e, t),
                    "seed {seed} {backend:?} tid {t}: {e:?}"
                );
            }
        }
    }
}

#[test]
fn masked_stores_touch_only_selected_threads() {
    for seed in 0..CASES {
        let threshold = Rng(seed).below(65) as u32;
        let mut b = KernelBuilder::new("mask");
        let out = b.param_u32("out");
        let t = b.param_u32("threshold");
        let i = b.global_tid_x();
        let p = b.lt_u32(i, t);
        b.if_(p, |b| {
            let oa = b.index(out, i, 4);
            b.st_global_u32(oa, Value::U32(1));
        });
        let kernel = b.build().expect("valid");

        for backend in BackendKind::ALL {
            let mut dev = Device::with_backend(backend);
            let hout = dev.alloc_zeroed_u32(64);
            dev.launch(
                &kernel,
                &LaunchConfig::new(2, 32),
                &[hout.arg(), Value::U32(threshold)],
            )
            .expect("runs");
            let got = dev.read_u32(&hout);
            for (i, &v) in got.iter().enumerate() {
                assert_eq!(
                    v,
                    u32::from((i as u32) < threshold),
                    "seed {seed} {backend:?} threshold {threshold} thread {i}"
                );
            }
        }
    }
}

#[test]
fn data_dependent_loops_are_exact() {
    // Each thread counts multiples of its divisor below 100.
    let mut b = KernelBuilder::new("count");
    let out = b.param_u32("out");
    let divs = b.param_u32("divs");
    let i = b.global_tid_x();
    let da = b.index(divs, i, 4);
    let d = b.ld_global_u32(da);
    let count = b.var_u32(Value::U32(0));
    b.for_range_u32(Value::U32(1), Value::U32(100), 1, |b, j| {
        let m = b.rem_u32(j, d);
        let hit = b.eq_u32(m, Value::U32(0));
        b.if_(hit, |b| {
            let n = b.add_u32(count, Value::U32(1));
            b.assign(count, n);
        });
    });
    let oa = b.index(out, i, 4);
    b.st_global_u32(oa, count);
    let kernel = b.build().expect("valid");

    for seed in 0..CASES {
        let mut rng = Rng(seed);
        let divisors: Vec<u32> = (0..32).map(|_| 1 + rng.below(16) as u32).collect();
        for backend in BackendKind::ALL {
            let mut dev = Device::with_backend(backend);
            let hdivs = dev.alloc_u32(&divisors);
            let hout = dev.alloc_zeroed_u32(32);
            dev.launch(
                &kernel,
                &LaunchConfig::new(1, 32),
                &[hout.arg(), hdivs.arg()],
            )
            .expect("runs");
            let got = dev.read_u32(&hout);
            for (i, &d) in divisors.iter().enumerate() {
                let expect = (1..100).filter(|j| j % d == 0).count() as u32;
                assert_eq!(
                    got[i], expect,
                    "seed {seed} {backend:?} thread {i} divisor {d}"
                );
            }
        }
    }
}
