//! The 8-wide lane-group warp engine ([`crate::backend::SimdBackend`]).
//!
//! The scalar reference steps one lane at a time through a tag-free but
//! still lane-serial `match`. This engine processes the 32 warp lanes as
//! **four 8-wide lane groups**: operands are materialized into `[u32; 8]`
//! value vectors, the opcode `match` happens once per group (not per
//! lane), and the tight 8-element loops are plain indexed array code the
//! autovectorizer lowers to real SIMD. Results are committed with the
//! group's slice of the active mask as a **blend mask** — every lane is
//! computed, only active lanes are written:
//!
//! ```text
//! dst[i] = if mask & (1 << i) != 0 { result[i] } else { dst[i] }
//! ```
//!
//! # Bit-identity discipline
//!
//! The differential harness (`tests/backend_diff.rs`) holds this engine
//! to *total* equivalence with the scalar loop — same observer events in
//! the same order, same register/memory effects, same stats, same errors
//! at the same pc. The rules that make that hold:
//!
//! * Computing an IEEE op on an inactive lane's garbage input is safe:
//!   the result is deterministic bitwise and the blend discards it.
//! * Integer div/rem keep the scalar per-lane checked path: the scalar
//!   loop faults at the *first* active zero-divisor lane after writing
//!   earlier lanes, and that partial-write order is observable.
//! * Memory µops vectorize address generation only; the per-lane
//!   load/store/atomic loop runs in ascending lane order exactly like
//!   the scalar engine (atomics serialize, fault order is per-lane).
//! * `addr_buf` entries are written for active lanes only — inactive
//!   lanes keep stale values, matching the scalar engine's documented
//!   [`MemEvent`] contract.

use crate::decode::{self, BinKind, Src, UnKind, Uop};
use crate::exec::{advance, lanes, read4, write4, write_reg, LaunchCtx, Warp};
use crate::instr::{CmpOp, Space, Type};
use crate::trace::{AccessKind, BranchEvent, MemEvent, TraceObserver};
use crate::{SimtError, WARP_SIZE};

/// Lane groups per warp (32 lanes / 8-wide groups).
const GROUPS: usize = WARP_SIZE / 8;

/// The 8 mask bits covering lane group `g`.
#[inline]
fn group_mask(mask: u32, g: usize) -> u32 {
    (mask >> (g * 8)) & 0xff
}

/// Copies lane group `g` of register `r` out of the bank.
#[inline]
fn group8(warp: &Warp, r: u16, g: usize) -> [u32; 8] {
    let o = r as usize * WARP_SIZE + g * 8;
    warp.regs[o..o + 8].try_into().expect("8 lanes")
}

/// Commits a result vector to lane group `g` of register `r` in select
/// form: active lanes take the new value, inactive keep the old.
#[inline]
fn blend8(warp: &mut Warp, r: u16, g: usize, gm: u32, v: &[u32; 8]) {
    let o = r as usize * WARP_SIZE + g * 8;
    let d = &mut warp.regs[o..o + 8];
    for (i, d) in d.iter_mut().enumerate() {
        *d = if gm & (1 << i) != 0 { v[i] } else { *d };
    }
}

/// Materializes operand `s` for lane group `g` as a value vector.
/// Registers copy their group, immediates/params splat, special
/// registers fall back to the scalar evaluator per lane (same formulas,
/// same bits).
#[inline]
fn eval8(ctx: &LaunchCtx<'_>, warp: &Warp, block: u32, g: usize, s: Src) -> [u32; 8] {
    match s {
        Src::Reg(r) => group8(warp, r, g),
        Src::Imm(bits) => [bits; 8],
        Src::Param(i) => [ctx.params[i as usize]; 8],
        Src::Sreg(_) => std::array::from_fn(|i| ctx.eval(warp, block, g * 8 + i, s)),
    }
}

#[inline]
fn map2(a: &[u32; 8], b: &[u32; 8], f: impl Fn(u32, u32) -> u32) -> [u32; 8] {
    std::array::from_fn(|i| f(a[i], b[i]))
}

#[inline]
fn i2(a: &[u32; 8], b: &[u32; 8], f: impl Fn(i32, i32) -> i32) -> [u32; 8] {
    std::array::from_fn(|i| f(a[i] as i32, b[i] as i32) as u32)
}

#[inline]
fn f2(a: &[u32; 8], b: &[u32; 8], f: impl Fn(f32, f32) -> f32) -> [u32; 8] {
    std::array::from_fn(|i| f(f32::from_bits(a[i]), f32::from_bits(b[i])).to_bits())
}

#[inline]
fn f1(a: &[u32; 8], f: impl Fn(f32) -> f32) -> [u32; 8] {
    std::array::from_fn(|i| f(f32::from_bits(a[i])).to_bits())
}

/// 8-wide [`BinKind::eval`]; div/rem are excluded (they keep the scalar
/// checked path — see the module docs).
#[inline]
fn bin8(kind: BinKind, a: &[u32; 8], b: &[u32; 8]) -> [u32; 8] {
    use BinKind::*;
    match kind {
        AddU32 => map2(a, b, u32::wrapping_add),
        SubU32 => map2(a, b, u32::wrapping_sub),
        MulU32 => map2(a, b, u32::wrapping_mul),
        MinU32 => map2(a, b, u32::min),
        MaxU32 => map2(a, b, u32::max),
        AndU32 | AndI32 | AndPred => map2(a, b, |x, y| x & y),
        OrU32 | OrI32 | OrPred => map2(a, b, |x, y| x | y),
        XorU32 | XorI32 | XorPred => map2(a, b, |x, y| x ^ y),
        ShlU32 => map2(a, b, u32::wrapping_shl),
        ShrU32 => map2(a, b, u32::wrapping_shr),
        AddI32 => i2(a, b, i32::wrapping_add),
        SubI32 => i2(a, b, i32::wrapping_sub),
        MulI32 => i2(a, b, i32::wrapping_mul),
        MinI32 => i2(a, b, i32::min),
        MaxI32 => i2(a, b, i32::max),
        ShlI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_shl(b[i]) as u32),
        ShrI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_shr(b[i]) as u32),
        AddF32 => f2(a, b, |x, y| x + y),
        SubF32 => f2(a, b, |x, y| x - y),
        MulF32 => f2(a, b, |x, y| x * y),
        DivF32 => f2(a, b, |x, y| x / y),
        MinF32 => f2(a, b, f32::min),
        MaxF32 => f2(a, b, f32::max),
        DivU32 | RemU32 | DivI32 | RemI32 => {
            unreachable!("checked div/rem take the per-lane scalar path")
        }
    }
}

/// 8-wide [`UnKind::eval`].
#[inline]
fn un8(kind: UnKind, a: &[u32; 8]) -> [u32; 8] {
    use UnKind::*;
    match kind {
        NegI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_neg() as u32),
        NegF32 => f1(a, |x| -x),
        AbsI32 => std::array::from_fn(|i| (a[i] as i32).wrapping_abs() as u32),
        AbsF32 => f1(a, f32::abs),
        NotInt => std::array::from_fn(|i| !a[i]),
        NotPred => std::array::from_fn(|i| a[i] ^ 1),
        SqrtF32 => f1(a, f32::sqrt),
        RsqrtF32 => f1(a, |x| 1.0 / x.sqrt()),
        Exp2F32 => f1(a, f32::exp2),
        Log2F32 => f1(a, f32::log2),
        SinF32 => f1(a, f32::sin),
        CosF32 => f1(a, f32::cos),
        RecipF32 => f1(a, |x| 1.0 / x),
    }
}

/// 8-wide [`decode::eval_cmp`]. Rust's comparison operators agree with
/// the ordering-based reference bit for bit, including every NaN case
/// (`Ne` true, everything else false).
#[inline]
fn cmp8(op: CmpOp, ty: Type, a: &[u32; 8], b: &[u32; 8]) -> [u32; 8] {
    #[inline]
    fn c<T: PartialOrd>(op: CmpOp, x: T, y: T) -> u32 {
        (match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }) as u32
    }
    match ty {
        Type::U32 => std::array::from_fn(|i| c(op, a[i], b[i])),
        Type::I32 => std::array::from_fn(|i| c(op, a[i] as i32, b[i] as i32)),
        Type::F32 => std::array::from_fn(|i| c(op, f32::from_bits(a[i]), f32::from_bits(b[i]))),
        Type::Pred => unreachable!("validated: no predicate comparisons"),
    }
}

/// 8-wide [`decode::eval_mad`].
#[inline]
fn mad8(ty: Type, a: &[u32; 8], b: &[u32; 8], c: &[u32; 8]) -> [u32; 8] {
    match ty {
        Type::U32 => std::array::from_fn(|i| a[i].wrapping_mul(b[i]).wrapping_add(c[i])),
        Type::I32 => std::array::from_fn(|i| {
            (a[i] as i32)
                .wrapping_mul(b[i] as i32)
                .wrapping_add(c[i] as i32) as u32
        }),
        Type::F32 => std::array::from_fn(|i| {
            f32::from_bits(a[i])
                .mul_add(f32::from_bits(b[i]), f32::from_bits(c[i]))
                .to_bits()
        }),
        Type::Pred => unreachable!("validated: no predicate mad"),
    }
}

/// 8-wide [`decode::convert`].
#[inline]
fn cvt8(from: Type, to: Type, v: &[u32; 8]) -> [u32; 8] {
    std::array::from_fn(|i| decode::convert(v[i], from, to))
}

/// Grouped address generation: active lanes of `out` get `base +
/// offset`, inactive lanes keep their stale values (the scalar engine's
/// exact policy — [`MemEvent::addrs`] entries are only valid under the
/// active mask).
fn gather_addrs8(
    ctx: &LaunchCtx<'_>,
    warp: &Warp,
    block: u32,
    mask: u32,
    base: Src,
    offset: i32,
    out: &mut [u32; WARP_SIZE],
) {
    for g in 0..GROUPS {
        let gm = group_mask(mask, g);
        if gm == 0 {
            continue;
        }
        let b8 = eval8(ctx, warp, block, g, base);
        let chunk = &mut out[g * 8..g * 8 + 8];
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = if gm & (1 << i) != 0 {
                b8[i].wrapping_add_signed(offset)
            } else {
                *o
            };
        }
    }
}

/// Runs one warp until it exits or reaches a barrier — the SIMD engine's
/// main loop. Structure mirrors [`LaunchCtx::run_warp_scalar`] step for
/// step and shares its accounting, instruction event and branch split;
/// only the per-µop execution bodies differ.
pub(crate) fn run_warp_simd<O: TraceObserver + ?Sized>(
    ctx: &mut LaunchCtx<'_>,
    block: u32,
    warp: &mut Warp,
    shared: &mut [u8],
    local: &mut [u8],
    observer: &mut O,
) -> Result<(), SimtError> {
    let dec = ctx.dec;
    let exit_pc = dec.len();
    let uops = dec.uops();
    let mut addr_buf = [0u32; WARP_SIZE];

    loop {
        let Some(top) = warp.stack.last().copied() else {
            return Ok(());
        };
        if top.mask == 0 || top.pc == top.rpc || top.pc >= exit_pc {
            warp.stack.pop();
            continue;
        }
        let pc = top.pc;
        let mask = top.mask;

        ctx.retire(pc, mask, warp.live)?;
        ctx.observe_instr(observer, block, warp, pc, mask);

        match uops[pc] {
            Uop::Bin { kind, dst, a, b } => {
                if matches!(
                    kind,
                    BinKind::DivU32 | BinKind::RemU32 | BinKind::DivI32 | BinKind::RemI32
                ) {
                    // Checked ops stay lane-serial: the fault pc and the
                    // partial writes of earlier lanes are observable.
                    for lane in lanes(mask) {
                        let va = ctx.eval(warp, block, lane, a);
                        let vb = ctx.eval(warp, block, lane, b);
                        let r = kind.eval(va, vb).ok_or(SimtError::DivideByZero { pc })?;
                        write_reg(warp, dst, lane, r);
                    }
                } else {
                    for g in 0..GROUPS {
                        let gm = group_mask(mask, g);
                        if gm == 0 {
                            continue;
                        }
                        let va = eval8(ctx, warp, block, g, a);
                        let vb = eval8(ctx, warp, block, g, b);
                        let r = bin8(kind, &va, &vb);
                        blend8(warp, dst, g, gm, &r);
                    }
                }
                advance(warp);
            }
            Uop::Un { kind, dst, a } => {
                for g in 0..GROUPS {
                    let gm = group_mask(mask, g);
                    if gm == 0 {
                        continue;
                    }
                    let va = eval8(ctx, warp, block, g, a);
                    let r = un8(kind, &va);
                    blend8(warp, dst, g, gm, &r);
                }
                advance(warp);
            }
            Uop::Mad { ty, dst, a, b, c } => {
                for g in 0..GROUPS {
                    let gm = group_mask(mask, g);
                    if gm == 0 {
                        continue;
                    }
                    let va = eval8(ctx, warp, block, g, a);
                    let vb = eval8(ctx, warp, block, g, b);
                    let vc = eval8(ctx, warp, block, g, c);
                    let r = mad8(ty, &va, &vb, &vc);
                    blend8(warp, dst, g, gm, &r);
                }
                advance(warp);
            }
            Uop::Cmp { op, ty, dst, a, b } => {
                for g in 0..GROUPS {
                    let gm = group_mask(mask, g);
                    if gm == 0 {
                        continue;
                    }
                    let va = eval8(ctx, warp, block, g, a);
                    let vb = eval8(ctx, warp, block, g, b);
                    let r = cmp8(op, ty, &va, &vb);
                    blend8(warp, dst, g, gm, &r);
                }
                advance(warp);
            }
            Uop::Sel { dst, pred, a, b } => {
                for g in 0..GROUPS {
                    let gm = group_mask(mask, g);
                    if gm == 0 {
                        continue;
                    }
                    let p = group8(warp, pred, g);
                    let va = eval8(ctx, warp, block, g, a);
                    let vb = eval8(ctx, warp, block, g, b);
                    let r: [u32; 8] =
                        std::array::from_fn(|i| if p[i] != 0 { va[i] } else { vb[i] });
                    blend8(warp, dst, g, gm, &r);
                }
                advance(warp);
            }
            Uop::Mov { dst, src } => {
                for g in 0..GROUPS {
                    let gm = group_mask(mask, g);
                    if gm == 0 {
                        continue;
                    }
                    let v = eval8(ctx, warp, block, g, src);
                    blend8(warp, dst, g, gm, &v);
                }
                advance(warp);
            }
            Uop::Cvt { from, to, dst, src } => {
                for g in 0..GROUPS {
                    let gm = group_mask(mask, g);
                    if gm == 0 {
                        continue;
                    }
                    let v = eval8(ctx, warp, block, g, src);
                    let r = cvt8(from, to, &v);
                    blend8(warp, dst, g, gm, &r);
                }
                advance(warp);
            }
            Uop::Ld {
                dst,
                space,
                base,
                offset,
            } => {
                gather_addrs8(ctx, warp, block, mask, base, offset, &mut addr_buf);
                observer.on_mem(&MemEvent {
                    block,
                    warp: warp.id,
                    pc,
                    space,
                    kind: AccessKind::Load,
                    bytes: 4,
                    active: mask,
                    addrs: &addr_buf,
                });
                let lb = ctx.kernel.local_bytes() as usize;
                for lane in lanes(mask) {
                    let a = addr_buf[lane];
                    let raw = match space {
                        Space::Global => read4(ctx.global, a, pc, "global")?,
                        Space::Shared => read4(shared, a, pc, "shared")?,
                        Space::Const => read4(ctx.const_mem, a, pc, "const")?,
                        Space::Local => {
                            let t = (warp.base_thread as usize + lane) * lb;
                            read4(&local[t..t + lb], a, pc, "local")?
                        }
                    };
                    write_reg(warp, dst, lane, u32::from_le_bytes(raw));
                }
                advance(warp);
            }
            Uop::St {
                space,
                base,
                offset,
                src,
            } => {
                gather_addrs8(ctx, warp, block, mask, base, offset, &mut addr_buf);
                observer.on_mem(&MemEvent {
                    block,
                    warp: warp.id,
                    pc,
                    space,
                    kind: AccessKind::Store,
                    bytes: 4,
                    active: mask,
                    addrs: &addr_buf,
                });
                let lb = ctx.kernel.local_bytes() as usize;
                for lane in lanes(mask) {
                    let v = ctx.eval(warp, block, lane, src);
                    let a = addr_buf[lane];
                    let data = v.to_le_bytes();
                    match space {
                        Space::Global => write4(ctx.global, a, data, pc, "global")?,
                        Space::Shared => write4(shared, a, data, pc, "shared")?,
                        Space::Local => {
                            let t = (warp.base_thread as usize + lane) * lb;
                            write4(&mut local[t..t + lb], a, data, pc, "local")?
                        }
                        Space::Const => {
                            return Err(SimtError::OutOfBounds {
                                pc,
                                space: "const",
                                addr: a as u64,
                                size: 0,
                            })
                        }
                    }
                }
                advance(warp);
            }
            Uop::Atom {
                kind,
                dst,
                space,
                base,
                offset,
                src,
                compare,
            } => {
                gather_addrs8(ctx, warp, block, mask, base, offset, &mut addr_buf);
                observer.on_mem(&MemEvent {
                    block,
                    warp: warp.id,
                    pc,
                    space,
                    kind: AccessKind::Atomic,
                    bytes: 4,
                    active: mask,
                    addrs: &addr_buf,
                });
                // Atomics serialize per lane by definition; identical to
                // the scalar loop.
                for lane in lanes(mask) {
                    let a = addr_buf[lane];
                    let operand = ctx.eval(warp, block, lane, src);
                    let cmp_v = compare.map(|c| ctx.eval(warp, block, lane, c));
                    let old = match space {
                        Space::Global => u32::from_le_bytes(read4(ctx.global, a, pc, "global")?),
                        Space::Shared => u32::from_le_bytes(read4(shared, a, pc, "shared")?),
                        _ => unreachable!("atomics validated to global/shared"),
                    };
                    if let Some(new) = kind.apply(old, operand, cmp_v) {
                        let data = new.to_le_bytes();
                        match space {
                            Space::Global => write4(ctx.global, a, data, pc, "global")?,
                            Space::Shared => write4(shared, a, data, pc, "shared")?,
                            _ => unreachable!("atomics validated to global/shared"),
                        }
                    }
                    if let Some(d) = dst {
                        write_reg(warp, d, lane, old);
                    }
                }
                advance(warp);
            }
            Uop::Bar => {
                if mask != warp.live || warp.stack.len() != 1 {
                    return Err(SimtError::BarrierDivergence { pc });
                }
                advance(warp);
                warp.at_barrier = true;
                return Ok(());
            }
            Uop::Jump { target } => {
                warp.stack.last_mut().expect("non-empty").pc = target as usize;
            }
            Uop::Branch {
                target,
                reg,
                negate,
                rpc,
            } => {
                let mut taken = 0u32;
                for g in 0..GROUPS {
                    let gm = group_mask(mask, g);
                    if gm == 0 {
                        continue;
                    }
                    let p = group8(warp, reg, g);
                    for (i, &p) in p.iter().enumerate() {
                        if gm & (1 << i) != 0 && (p != 0) != negate {
                            taken |= 1 << (g * 8 + i);
                        }
                    }
                }
                observer.on_branch(&BranchEvent {
                    block,
                    warp: warp.id,
                    pc,
                    active: mask,
                    taken,
                });
                ctx.branch(warp, pc, mask, taken, target, rpc);
            }
            Uop::Ret => {
                let exiting = mask;
                warp.live &= !exiting;
                for e in &mut warp.stack {
                    e.mask &= !exiting;
                }
            }
        }
    }
}
