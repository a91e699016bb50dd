//! Template-matching IA-32 encoder.
//!
//! "To encode an `Instr`, first the raw bit pointer is checked. If it is
//! valid, the instruction is encoded by simply copying the raw bits. If the
//! raw bits are invalid (Level 4), the instruction must be fully encoded from
//! its operands. Encoding an IA-32 instruction is costly, as many
//! instructions have special forms when the operands have certain values.
//! The encoder must walk through every operand and find an instruction
//! template that matches." (paper §3.1)
//!
//! The special short forms are implemented: `inc %reg` (one byte), `add
//! $imm8` sign-extended group-1 forms, accumulator (`%eax`) short forms,
//! `push $imm8`, shift-by-one, etc.
//!
//! Direct CTIs are position-dependent, so whenever a decoded direct CTI is
//! encoded its displacement is re-materialized from its absolute target
//! rather than copied — this is what allows fragments to be placed anywhere
//! in the code cache.

use std::error::Error;
use std::fmt;

use crate::ilist::{IdMap, InstrId, InstrList};
use crate::instr::Instr;
use crate::opcode::Opcode;
use crate::opnd::{MemRef, OpSize, Opnd};
use crate::reg::Reg;

/// Errors produced when encoding instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// No encoding template matches the instruction's operands.
    NoTemplate(Opcode),
    /// The instruction has neither valid raw bits nor decoded operands.
    NotDecoded,
    /// A branch names a label that the resolver cannot place.
    UnresolvedLabel(InstrId),
    /// A rel8-only branch (`jecxz`) target is out of range.
    TargetOutOfRange {
        /// The required displacement.
        disp: i64,
    },
    /// An operand combination that IA-32 cannot express (e.g. `%esp` index,
    /// bad scale).
    InvalidOperand,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::NoTemplate(op) => write!(f, "no encoding template for {op}"),
            EncodeError::NotDecoded => write!(f, "instruction not decoded and raw bits invalid"),
            EncodeError::UnresolvedLabel(id) => write!(f, "unresolved label {id:?}"),
            EncodeError::TargetOutOfRange { disp } => {
                write!(f, "branch displacement {disp} out of range")
            }
            EncodeError::InvalidOperand => write!(f, "operand not encodable"),
        }
    }
}

impl Error for EncodeError {}

/// Target resolver: maps an intra-list label id to its code address.
pub type Resolver<'a> = &'a dyn Fn(InstrId) -> Option<u32>;

fn push_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn fits_i8(v: i32) -> bool {
    (-128..=127).contains(&v)
}

/// Emit a ModRM byte (plus SIB/displacement) for `reg_digit` and the given
/// r/m operand.
fn emit_modrm(out: &mut Vec<u8>, reg_digit: u8, rm: &Opnd) -> Result<(), EncodeError> {
    match rm {
        Opnd::Reg(r) => {
            out.push(0xC0 | (reg_digit << 3) | r.number());
            Ok(())
        }
        Opnd::Mem(m) => emit_modrm_mem(out, reg_digit, m),
        _ => Err(EncodeError::InvalidOperand),
    }
}

fn emit_modrm_mem(out: &mut Vec<u8>, reg_digit: u8, m: &MemRef) -> Result<(), EncodeError> {
    if let Some(idx) = m.index {
        if idx == Reg::Esp || idx.size() != OpSize::S32 {
            return Err(EncodeError::InvalidOperand);
        }
        if ![1, 2, 4, 8].contains(&m.scale) {
            return Err(EncodeError::InvalidOperand);
        }
    }
    if let Some(b) = m.base {
        if b.size() != OpSize::S32 {
            return Err(EncodeError::InvalidOperand);
        }
    }

    let scale_bits = match m.scale {
        1 => 0u8,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => 0,
    };

    match (m.base, m.index) {
        (None, None) => {
            // Absolute: mod=00 rm=101 disp32.
            out.push((reg_digit << 3) | 5);
            push_i32(out, m.disp);
            Ok(())
        }
        (None, Some(idx)) => {
            // SIB with no base: mod=00 rm=100, sib base=101, disp32.
            out.push((reg_digit << 3) | 4);
            out.push((scale_bits << 6) | (idx.number() << 3) | 5);
            push_i32(out, m.disp);
            Ok(())
        }
        (Some(base), index) => {
            let needs_sib = index.is_some() || base == Reg::Esp;
            // mod selection: %ebp base cannot use mod=00 (that means disp32).
            let (mod_bits, disp_len) = if m.disp == 0 && base != Reg::Ebp {
                (0u8, 0u8)
            } else if fits_i8(m.disp) {
                (1, 1)
            } else {
                (2, 4)
            };
            if needs_sib {
                out.push((mod_bits << 6) | (reg_digit << 3) | 4);
                let idx_bits = index.map_or(4, |i| i.number());
                out.push((scale_bits << 6) | (idx_bits << 3) | base.number());
            } else {
                out.push((mod_bits << 6) | (reg_digit << 3) | base.number());
            }
            match disp_len {
                0 => {}
                1 => out.push(m.disp as i8 as u8),
                _ => push_i32(out, m.disp),
            }
            Ok(())
        }
    }
}

fn reg32(op: &Opnd) -> Option<Reg> {
    op.as_reg().filter(|r| r.size() == OpSize::S32)
}

/// Group-1 arithmetic opcodes and their encoding index.
fn grp1_index(op: Opcode) -> Option<u8> {
    match op {
        Opcode::Add => Some(0),
        Opcode::Or => Some(1),
        Opcode::Adc => Some(2),
        Opcode::Sbb => Some(3),
        Opcode::And => Some(4),
        Opcode::Sub => Some(5),
        Opcode::Xor => Some(6),
        Opcode::Cmp => Some(7),
        _ => None,
    }
}

fn grp2_digit(op: Opcode) -> Option<u8> {
    match op {
        Opcode::Rol => Some(0),
        Opcode::Ror => Some(1),
        Opcode::Shl => Some(4),
        Opcode::Shr => Some(5),
        Opcode::Sar => Some(7),
        _ => None,
    }
}

/// Resolve a branch-target operand to an absolute code address.
fn resolve_target(op: &Opnd, resolve: Resolver<'_>) -> Result<u32, EncodeError> {
    match op {
        Opnd::Pc(pc) => Ok(*pc),
        Opnd::Instr(id) => resolve(*id).ok_or(EncodeError::UnresolvedLabel(*id)),
        _ => Err(EncodeError::InvalidOperand),
    }
}

/// Whether the encoder may copy this instruction's raw bits verbatim.
///
/// Direct CTIs with decoded targets are position-dependent, so they are
/// always re-encoded from their absolute target. Everything else in the
/// subset is position-independent.
fn can_copy_raw(instr: &Instr) -> bool {
    if !instr.raw_valid() {
        return false;
    }
    match instr.opcode() {
        Some(op) if op.is_cti() && !op.is_indirect_cti() && op != Opcode::Ret => {
            // Copy only if operands were never decoded (Level 1/2).
            instr.srcs().is_empty()
        }
        _ => true,
    }
}

/// Encode a single instruction placed at address `at_pc`.
///
/// `resolve` maps intra-list label ids to addresses; pass `&|_| None` when
/// the instruction cannot contain label targets.
///
/// # Errors
///
/// Returns [`EncodeError`] if no template matches, a label is unresolved, or
/// a rel8 target is out of range.
///
/// # Examples
///
/// ```
/// use rio_ia32::{create, encode_instr, Opnd, Reg};
/// let i = create::add(Opnd::reg(Reg::Eax), Opnd::imm8(1));
/// let bytes = encode_instr(&i, 0x1000, &|_| None)?;
/// assert_eq!(bytes, vec![0x83, 0xc0, 0x01]); // short imm8 form
/// # Ok::<(), rio_ia32::EncodeError>(())
/// ```
pub fn encode_instr(
    instr: &Instr,
    at_pc: u32,
    resolve: Resolver<'_>,
) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(8);
    encode_instr_into(instr, at_pc, resolve, &mut out)?;
    Ok(out)
}

/// [`encode_instr`], appending to `out` instead of returning a new buffer.
fn encode_instr_into(
    instr: &Instr,
    at_pc: u32,
    resolve: Resolver<'_>,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    if instr.is_label() {
        return Ok(());
    }
    if can_copy_raw(instr) {
        out.extend_from_slice(instr.raw_bytes().unwrap());
        return Ok(());
    }
    let Some(op) = instr.opcode() else {
        return Err(EncodeError::NotDecoded);
    };
    encode_from_operands(instr, op, at_pc, resolve, out)
}

fn encode_from_operands(
    instr: &Instr,
    op: Opcode,
    at_pc: u32,
    resolve: Resolver<'_>,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    let srcs = instr.srcs();
    let dsts = instr.dsts();
    let no_template = || EncodeError::NoTemplate(op);

    // Group-1 arithmetic (incl. cmp) shares template logic.
    if let Some(idx) = grp1_index(op) {
        let base = idx * 8;
        // Intel operand positions: `op first, second`.
        let (first, second) = if op == Opcode::Cmp {
            (
                srcs.first().ok_or_else(no_template)?,
                srcs.get(1).ok_or_else(no_template)?,
            )
        } else {
            (
                dsts.first().ok_or_else(no_template)?,
                srcs.first().ok_or_else(no_template)?,
            )
        };
        let size = first.size().max(second.size());
        match second {
            Opnd::Imm(v, _) => {
                if size == OpSize::S8 {
                    if first.as_reg() == Some(Reg::Al) {
                        out.push(base + 4);
                    } else {
                        out.push(0x80);
                        emit_modrm(out, idx, first)?;
                    }
                    out.push(*v as i8 as u8);
                } else if fits_i8(*v) {
                    out.push(0x83);
                    emit_modrm(out, idx, first)?;
                    out.push(*v as i8 as u8);
                } else if first.as_reg() == Some(Reg::Eax) {
                    out.push(base + 5);
                    push_i32(out, *v);
                } else {
                    out.push(0x81);
                    emit_modrm(out, idx, first)?;
                    push_i32(out, *v);
                }
            }
            Opnd::Reg(r) => {
                // op r/m, r form.
                let opc = if size == OpSize::S8 { base } else { base + 1 };
                out.push(opc);
                emit_modrm(out, r.number(), first)?;
            }
            Opnd::Mem(_) => {
                // op r, r/m form: first must be a register.
                let r = first.as_reg().ok_or_else(no_template)?;
                let opc = if size == OpSize::S8 {
                    base + 2
                } else {
                    base + 3
                };
                out.push(opc);
                emit_modrm(out, r.number(), second)?;
            }
            _ => return Err(no_template()),
        }
        return Ok(());
    }

    if let Some(digit) = grp2_digit(op) {
        let count = srcs.first().ok_or_else(no_template)?;
        let rm = dsts.first().ok_or_else(no_template)?;
        let is8 = rm.size() == OpSize::S8;
        match count {
            Opnd::Imm(1, _) => {
                out.push(if is8 { 0xD0 } else { 0xD1 });
                emit_modrm(out, digit, rm)?;
            }
            Opnd::Imm(v, _) => {
                out.push(if is8 { 0xC0 } else { 0xC1 });
                emit_modrm(out, digit, rm)?;
                out.push(*v as u8);
            }
            Opnd::Reg(Reg::Cl) => {
                out.push(if is8 { 0xD2 } else { 0xD3 });
                emit_modrm(out, digit, rm)?;
            }
            _ => return Err(no_template()),
        }
        return Ok(());
    }

    match op {
        Opcode::Mov => {
            let src = srcs.first().ok_or_else(no_template)?;
            let dst = dsts.first().ok_or_else(no_template)?;
            match (dst, src) {
                (Opnd::Reg(r), Opnd::Imm(v, _)) => match r.size() {
                    OpSize::S32 => {
                        out.push(0xB8 + r.number());
                        push_i32(out, *v);
                    }
                    OpSize::S8 => {
                        out.push(0xB0 + r.number());
                        out.push(*v as u8);
                    }
                    OpSize::S16 => return Err(no_template()),
                },
                (Opnd::Reg(r), _) => {
                    out.push(if r.size() == OpSize::S8 { 0x8A } else { 0x8B });
                    emit_modrm(out, r.number(), src)?;
                }
                (Opnd::Mem(m), Opnd::Reg(r)) => {
                    let _ = m;
                    out.push(if r.size() == OpSize::S8 { 0x88 } else { 0x89 });
                    emit_modrm(out, r.number(), dst)?;
                }
                (Opnd::Mem(m), Opnd::Imm(v, _)) => {
                    if m.size == OpSize::S8 {
                        out.push(0xC6);
                        emit_modrm(out, 0, dst)?;
                        out.push(*v as u8);
                    } else {
                        out.push(0xC7);
                        emit_modrm(out, 0, dst)?;
                        push_i32(out, *v);
                    }
                }
                _ => return Err(no_template()),
            }
        }
        Opcode::Lea => {
            let r = dsts.first().and_then(reg32).ok_or_else(no_template)?;
            let mem = srcs.first().ok_or_else(no_template)?;
            if !matches!(mem, Opnd::Mem(_)) {
                return Err(no_template());
            }
            out.push(0x8D);
            emit_modrm(out, r.number(), mem)?;
        }
        Opcode::Movzx | Opcode::Movsx => {
            let r = dsts.first().and_then(reg32).ok_or_else(no_template)?;
            let src = srcs.first().ok_or_else(no_template)?;
            let b2 = match (op, src.size()) {
                (Opcode::Movzx, OpSize::S8) => 0xB6,
                (Opcode::Movzx, OpSize::S16) => 0xB7,
                (Opcode::Movsx, OpSize::S8) => 0xBE,
                (Opcode::Movsx, OpSize::S16) => 0xBF,
                _ => return Err(no_template()),
            };
            out.push(0x0F);
            out.push(b2);
            emit_modrm(out, r.number(), src)?;
        }
        Opcode::Test => {
            let a = srcs.first().ok_or_else(no_template)?;
            let b = srcs.get(1).ok_or_else(no_template)?;
            match (a, b) {
                (Opnd::Reg(Reg::Eax), Opnd::Imm(v, _)) => {
                    out.push(0xA9);
                    push_i32(out, *v);
                }
                (Opnd::Reg(Reg::Al), Opnd::Imm(v, _)) => {
                    out.push(0xA8);
                    out.push(*v as u8);
                }
                (_, Opnd::Imm(v, _)) => {
                    if a.size() == OpSize::S8 {
                        out.push(0xF6);
                        emit_modrm(out, 0, a)?;
                        out.push(*v as u8);
                    } else {
                        out.push(0xF7);
                        emit_modrm(out, 0, a)?;
                        push_i32(out, *v);
                    }
                }
                (_, Opnd::Reg(r)) => {
                    out.push(if r.size() == OpSize::S8 { 0x84 } else { 0x85 });
                    emit_modrm(out, r.number(), a)?;
                }
                (Opnd::Reg(r), Opnd::Mem(_)) => {
                    out.push(if r.size() == OpSize::S8 { 0x84 } else { 0x85 });
                    emit_modrm(out, r.number(), b)?;
                }
                _ => return Err(no_template()),
            }
        }
        Opcode::Xchg => {
            let a = srcs.first().ok_or_else(no_template)?;
            let b = srcs.get(1).ok_or_else(no_template)?;
            let is8 = a.size() == OpSize::S8;
            match (a, b) {
                (_, Opnd::Reg(r)) => {
                    out.push(if is8 { 0x86 } else { 0x87 });
                    emit_modrm(out, r.number(), a)?;
                }
                (Opnd::Reg(r), _) => {
                    out.push(if is8 { 0x86 } else { 0x87 });
                    emit_modrm(out, r.number(), b)?;
                }
                _ => return Err(no_template()),
            }
        }
        Opcode::Inc | Opcode::Dec => {
            let rm = dsts.first().ok_or_else(no_template)?;
            let digit = if op == Opcode::Inc { 0 } else { 1 };
            if let Some(r) = reg32(rm) {
                out.push(if op == Opcode::Inc { 0x40 } else { 0x48 } + r.number());
            } else if rm.size() == OpSize::S8 {
                out.push(0xFE);
                emit_modrm(out, digit, rm)?;
            } else {
                out.push(0xFF);
                emit_modrm(out, digit, rm)?;
            }
        }
        Opcode::Neg | Opcode::Not => {
            let rm = dsts.first().ok_or_else(no_template)?;
            let digit = if op == Opcode::Neg { 3 } else { 2 };
            out.push(if rm.size() == OpSize::S8 { 0xF6 } else { 0xF7 });
            emit_modrm(out, digit, rm)?;
        }
        Opcode::Mul | Opcode::Div | Opcode::Idiv => {
            let rm = srcs.first().ok_or_else(no_template)?;
            let digit = match op {
                Opcode::Mul => 4,
                Opcode::Div => 6,
                _ => 7,
            };
            out.push(if rm.size() == OpSize::S8 { 0xF6 } else { 0xF7 });
            emit_modrm(out, digit, rm)?;
        }
        Opcode::Imul => {
            match (srcs, dsts) {
                // One-operand form: srcs [rm, eax], dsts [edx, eax].
                ([rm, Opnd::Reg(Reg::Eax)], [Opnd::Reg(Reg::Edx), Opnd::Reg(Reg::Eax)]) => {
                    out.push(0xF7);
                    emit_modrm(out, 5, rm)?;
                }
                // Three-operand form: srcs [rm, imm], dsts [reg].
                ([rm, Opnd::Imm(v, _)], [Opnd::Reg(r)]) => {
                    if fits_i8(*v) {
                        out.push(0x6B);
                        emit_modrm(out, r.number(), rm)?;
                        out.push(*v as i8 as u8);
                    } else {
                        out.push(0x69);
                        emit_modrm(out, r.number(), rm)?;
                        push_i32(out, *v);
                    }
                }
                // Two-operand form: srcs [rm, reg], dsts [reg].
                ([rm, Opnd::Reg(r1)], [Opnd::Reg(r2)]) if r1 == r2 => {
                    out.push(0x0F);
                    out.push(0xAF);
                    emit_modrm(out, r1.number(), rm)?;
                }
                _ => return Err(no_template()),
            }
        }
        Opcode::Push => {
            let src = srcs.first().ok_or_else(no_template)?;
            match src {
                Opnd::Reg(r) if r.size() == OpSize::S32 => out.push(0x50 + r.number()),
                Opnd::Imm(v, _) if fits_i8(*v) => {
                    out.push(0x6A);
                    out.push(*v as i8 as u8);
                }
                Opnd::Imm(v, _) => {
                    out.push(0x68);
                    push_i32(out, *v);
                }
                Opnd::Pc(pc) => {
                    // Pushing a code address (e.g. a return address) uses the
                    // imm32 form regardless of value.
                    out.push(0x68);
                    push_i32(out, *pc as i32);
                }
                Opnd::Mem(_) => {
                    out.push(0xFF);
                    emit_modrm(out, 6, src)?;
                }
                _ => return Err(no_template()),
            }
        }
        Opcode::Pop => {
            let dst = dsts.first().ok_or_else(no_template)?;
            match dst {
                Opnd::Reg(r) if r.size() == OpSize::S32 => out.push(0x58 + r.number()),
                Opnd::Mem(_) => {
                    out.push(0x8F);
                    emit_modrm(out, 0, dst)?;
                }
                _ => return Err(no_template()),
            }
        }
        Opcode::Pushfd => out.push(0x9C),
        Opcode::Popfd => out.push(0x9D),
        Opcode::Sahf => out.push(0x9E),
        Opcode::Lahf => out.push(0x9F),
        Opcode::Cwde => out.push(0x98),
        Opcode::Cdq => out.push(0x99),
        Opcode::Nop => out.push(0x90),
        Opcode::Int3 => out.push(0xCC),
        Opcode::Hlt => out.push(0xF4),
        Opcode::Int => {
            let v = srcs
                .first()
                .and_then(Opnd::as_imm)
                .ok_or_else(no_template)?;
            out.push(0xCD);
            out.push(v as u8);
        }
        Opcode::Set(cc) => {
            let rm = dsts.first().ok_or_else(no_template)?;
            out.push(0x0F);
            out.push(0x90 + cc.code());
            emit_modrm(out, 0, rm)?;
        }
        Opcode::Cmov(cc) => {
            let r = dsts.first().and_then(reg32).ok_or_else(no_template)?;
            let rm = srcs.first().ok_or_else(no_template)?;
            out.push(0x0F);
            out.push(0x40 + cc.code());
            emit_modrm(out, r.number(), rm)?;
        }
        Opcode::Bt => {
            let rm = srcs.first().ok_or_else(no_template)?;
            match srcs.get(1) {
                Some(Opnd::Reg(r)) => {
                    out.push(0x0F);
                    out.push(0xA3);
                    emit_modrm(out, r.number(), rm)?;
                }
                Some(Opnd::Imm(v, _)) => {
                    out.push(0x0F);
                    out.push(0xBA);
                    emit_modrm(out, 4, rm)?;
                    out.push(*v as u8);
                }
                _ => return Err(no_template()),
            }
        }
        Opcode::Bswap => {
            let r = dsts.first().and_then(reg32).ok_or_else(no_template)?;
            out.push(0x0F);
            out.push(0xC8 + r.number());
        }
        Opcode::Jmp => {
            let target = resolve_target(srcs.first().ok_or_else(no_template)?, resolve)?;
            out.push(0xE9);
            let disp = target.wrapping_sub(at_pc.wrapping_add(5)) as i32;
            push_i32(out, disp);
        }
        Opcode::Call => {
            let target = resolve_target(srcs.first().ok_or_else(no_template)?, resolve)?;
            out.push(0xE8);
            let disp = target.wrapping_sub(at_pc.wrapping_add(5)) as i32;
            push_i32(out, disp);
        }
        Opcode::Jcc(cc) => {
            let target = resolve_target(srcs.first().ok_or_else(no_template)?, resolve)?;
            out.push(0x0F);
            out.push(0x80 + cc.code());
            let disp = target.wrapping_sub(at_pc.wrapping_add(6)) as i32;
            push_i32(out, disp);
        }
        Opcode::Jecxz => {
            let target = resolve_target(srcs.first().ok_or_else(no_template)?, resolve)?;
            let disp = target.wrapping_sub(at_pc.wrapping_add(2)) as i32;
            if !fits_i8(disp) {
                return Err(EncodeError::TargetOutOfRange { disp: disp as i64 });
            }
            out.push(0xE3);
            out.push(disp as i8 as u8);
        }
        Opcode::JmpInd | Opcode::CallInd => {
            let rm = srcs.first().ok_or_else(no_template)?;
            out.push(0xFF);
            emit_modrm(out, if op == Opcode::JmpInd { 4 } else { 2 }, rm)?;
        }
        Opcode::Ret => {
            if let Some(Opnd::Imm(v, _)) = srcs.first() {
                out.push(0xC2);
                out.extend_from_slice(&(*v as u16).to_le_bytes());
            } else {
                out.push(0xC3);
            }
        }
        Opcode::Label => {}
        _ => return Err(no_template()),
    }
    Ok(())
}

/// Where every instruction of an [`InstrList`] lands in its encoding: the
/// result of a size-only pass, made before the final address is known.
///
/// Sizes do not depend on label addresses (synthesized direct branches use
/// fixed rel32 forms, and a self-targeting rel8 `jecxz` is always in
/// range), so the pass resolves every label to the branch's own address.
/// A caller that must know the total length before choosing an address
/// sizes once, then [`ListLayout::encode`]s once at the final address.
#[derive(Clone, Debug)]
pub struct ListLayout {
    /// `(offset, length)` of every instruction, by id. Labels have the
    /// offset of the following instruction and length 0.
    spans: IdMap<(u32, u32)>,
    total_len: u32,
}

impl ListLayout {
    /// Size every instruction of `il`, as if the list started at
    /// `start_pc`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if any instruction fails to encode.
    pub fn of(il: &InstrList, start_pc: u32) -> Result<ListLayout, EncodeError> {
        let mut spans = IdMap::for_list(il);
        let mut scratch = Vec::with_capacity(16);
        let mut off = 0u32;
        for id in il.ids() {
            let instr = il.get(id);
            let len = match instr.known_len() {
                Some(l) if can_copy_raw(instr) || instr.is_label() => l,
                _ => {
                    let at = start_pc.wrapping_add(off);
                    scratch.clear();
                    encode_instr_into(instr, at, &|_| Some(at), &mut scratch)?;
                    scratch.len() as u32
                }
            };
            spans.insert(id, (off, len));
            off += len;
        }
        Ok(ListLayout {
            spans,
            total_len: off,
        })
    }

    /// Total encoded length in bytes.
    pub fn total_len(&self) -> u32 {
        self.total_len
    }

    /// Offset of instruction `id`, if it was laid out.
    pub fn offset_of(&self, id: InstrId) -> Option<u32> {
        self.spans.get(id).map(|(off, _)| off)
    }

    /// Encoded length of instruction `id`, if it was laid out.
    pub fn len_of(&self, id: InstrId) -> Option<u32> {
        self.spans.get(id).map(|(_, len)| len)
    }

    /// Encode `il` at `start_pc` into one buffer, resolving intra-list
    /// label targets from this layout. `il` must be the list the layout
    /// was made from; edits since may only change values whose encoding
    /// has a fixed width (such as an imm32).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if any instruction fails to encode.
    pub fn encode(self, il: &InstrList, start_pc: u32) -> Result<EncodedList, EncodeError> {
        let spans = &self.spans;
        let lookup = |id: InstrId| spans.get(id).map(|(off, _)| start_pc.wrapping_add(off));
        let mut bytes = Vec::with_capacity(self.total_len as usize);
        for id in il.ids() {
            let off = bytes.len() as u32;
            debug_assert_eq!(Some(off), self.offset_of(id));
            encode_instr_into(il.get(id), start_pc.wrapping_add(off), &lookup, &mut bytes)?;
        }
        debug_assert_eq!(bytes.len() as u32, self.total_len);
        Ok(EncodedList {
            bytes,
            layout: self,
        })
    }
}

/// Result of encoding an entire [`InstrList`]: the bytes plus each
/// instruction's place within them.
#[derive(Clone, Debug)]
pub struct EncodedList {
    /// The encoded machine code.
    pub bytes: Vec<u8>,
    layout: ListLayout,
}

impl EncodedList {
    /// Offset of instruction `id`, if present. Labels have the offset of
    /// the following instruction.
    pub fn offset_of(&self, id: InstrId) -> Option<u32> {
        self.layout.offset_of(id)
    }

    /// Encoded length of instruction `id`, if present.
    pub fn len_of(&self, id: InstrId) -> Option<u32> {
        self.layout.len_of(id)
    }
}

/// Encode a whole list at `start_pc`, resolving intra-list label targets:
/// a size-only [`ListLayout`] pass, then one encoding pass.
///
/// # Errors
///
/// Returns [`EncodeError`] if any instruction fails to encode.
pub fn encode_list(il: &InstrList, start_pc: u32) -> Result<EncodedList, EncodeError> {
    ListLayout::of(il, start_pc)?.encode(il, start_pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::create;
    use crate::decode::decode_instr;
    use crate::instr::Target;

    fn no_labels(_: InstrId) -> Option<u32> {
        None
    }

    fn enc(i: &Instr) -> Vec<u8> {
        encode_instr(i, 0x1000, &no_labels).unwrap()
    }

    #[test]
    fn short_forms_are_selected() {
        // inc %eax -> one byte
        assert_eq!(enc(&create::inc(Opnd::reg(Reg::Eax))), vec![0x40]);
        // add $1, %ecx -> 83 c1 01 (imm8 form)
        assert_eq!(
            enc(&create::add(Opnd::reg(Reg::Ecx), Opnd::imm8(1))),
            vec![0x83, 0xC1, 0x01]
        );
        // add $0x1000, %eax -> accumulator form 05
        assert_eq!(
            enc(&create::add(Opnd::reg(Reg::Eax), Opnd::imm32(0x1000))),
            vec![0x05, 0x00, 0x10, 0x00, 0x00]
        );
        // push $3 -> 6a 03
        assert_eq!(enc(&create::push(Opnd::imm8(3))), vec![0x6A, 0x03]);
        // shl $1, %eax -> d1 e0
        assert_eq!(
            enc(&create::shl(Opnd::reg(Reg::Eax), Opnd::imm8(1))),
            vec![0xD1, 0xE0]
        );
    }

    #[test]
    fn raw_fast_path_copies_bytes() {
        let (i, _) = decode_instr(&[0x8b, 0x46, 0x0c], 0x400000).unwrap();
        assert!(i.raw_valid());
        assert_eq!(enc(&i), vec![0x8b, 0x46, 0x0c]);
    }

    #[test]
    fn direct_cti_is_rematerialized_not_copied() {
        // jmp rel8 decoded at 0x2000 targeting 0x2000; encoded at 0x1000 it
        // must still target 0x2000 (now rel32).
        let (i, _) = decode_instr(&[0xeb, 0xfe], 0x2000).unwrap();
        let bytes = enc(&i);
        assert_eq!(bytes[0], 0xE9);
        let (re, _) = decode_instr(&bytes, 0x1000).unwrap();
        assert_eq!(re.src(0), &Opnd::Pc(0x2000));
    }

    #[test]
    fn modrm_addressing_round_trips() {
        let cases: Vec<MemRef> = vec![
            MemRef::base_disp(Reg::Esi, 0xc, OpSize::S32),
            MemRef::base_disp(Reg::Ebp, 0, OpSize::S32), // needs disp8=0
            MemRef::base_disp(Reg::Esp, 8, OpSize::S32), // needs SIB
            MemRef::base_disp(Reg::Eax, -300, OpSize::S32), // disp32
            MemRef::base_index(Reg::Ecx, Reg::Eax, 1, 0, OpSize::S32),
            MemRef::base_index(Reg::Ebp, Reg::Edi, 8, 5, OpSize::S32),
            MemRef::index_disp(Reg::Ebx, 4, 0x10, OpSize::S32),
            MemRef::absolute(0x12345678, OpSize::S32),
        ];
        for m in cases {
            let i = create::mov(Opnd::reg(Reg::Edx), Opnd::Mem(m));
            let bytes = enc(&i);
            let (re, len) = decode_instr(&bytes, 0).unwrap();
            assert_eq!(len as usize, bytes.len());
            assert_eq!(re.src(0).as_mem(), Some(&m), "case {m}");
        }
    }

    #[test]
    fn esp_index_rejected() {
        let m = MemRef::base_index(Reg::Eax, Reg::Esp, 1, 0, OpSize::S32);
        let i = create::mov(Opnd::reg(Reg::Edx), Opnd::Mem(m));
        assert_eq!(
            encode_instr(&i, 0, &no_labels),
            Err(EncodeError::InvalidOperand)
        );
    }

    #[test]
    fn jecxz_range_enforced() {
        let j = create::jecxz(Target::Pc(0x10_0000));
        assert!(matches!(
            encode_instr(&j, 0, &no_labels),
            Err(EncodeError::TargetOutOfRange { .. })
        ));
        let near = create::jecxz(Target::Pc(0x1010));
        assert!(encode_instr(&near, 0x1000, &no_labels).is_ok());
    }

    #[test]
    fn offset_of_misses_a_removed_id_whose_slot_was_reused() {
        let mut il = InstrList::new();
        il.push_back(create::nop());
        let gone = il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        il.push_back(create::nop());
        let before = encode_list(&il, 0x1000).unwrap();
        assert_eq!(before.offset_of(gone), Some(1));
        assert_eq!(before.len_of(gone), Some(1));

        il.remove(gone);
        let reuse = il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(0x1234)));
        assert_eq!(reuse.raw(), gone.raw()); // same slot, new generation
        let after = encode_list(&il, 0x1000).unwrap();
        assert_eq!(after.offset_of(gone), None);
        assert_eq!(after.len_of(gone), None);
        assert_eq!(after.offset_of(reuse), Some(2));
        assert_eq!(after.len_of(reuse), Some(5)); // add eax, imm32 short form
        assert_eq!(after.bytes.len(), 7);
    }

    #[test]
    fn layout_then_single_encode_matches_encode_list() {
        // Sizing at one address and encoding at another (what fragment
        // emission does) gives the bytes a direct encode there gives.
        let mut il = InstrList::new();
        let top = il.push_back(Instr::label());
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm8(1)));
        let exit = il.push_back(create::jmp(Target::Pc(0x4000)));
        let mut back = create::jcc(crate::Cc::Nz, Target::Pc(0));
        back.set_target(Target::Instr(top));
        il.push_back(back);
        let layout = ListLayout::of(&il, 0).unwrap();
        let total = layout.total_len();
        let once = layout.encode(&il, 0x9000).unwrap();
        let direct = encode_list(&il, 0x9000).unwrap();
        assert_eq!(total as usize, once.bytes.len());
        assert_eq!(once.bytes, direct.bytes);
        assert_eq!(once.offset_of(exit), Some(3));
        assert_eq!(once.len_of(exit), Some(5));
        assert_eq!(once.offset_of(top), Some(0));
        assert_eq!(once.len_of(top), Some(0));
    }

    #[test]
    fn encode_list_resolves_forward_and_backward_labels() {
        let mut il = InstrList::new();
        // L1: nop; jmp L2; nop; L2: jmp L1
        let top = il.push_back(Instr::label());
        il.push_back(create::nop());
        let mut fwd = create::jmp(Target::Pc(0));

        il.push_back(create::nop());
        let bottom = il.push_back(Instr::label());
        let mut back = create::jmp(Target::Pc(0));
        back.set_target(Target::Instr(top));
        il.push_back(back);
        fwd.set_target(Target::Instr(bottom));
        let fwd_id = il.insert_after(il.ids().nth(1).unwrap(), fwd);

        let encoded = encode_list(&il, 0x5000).unwrap();
        // Verify the forward jmp targets the bottom label's offset.
        let fwd_off = encoded.offset_of(fwd_id).unwrap();
        let disp = i32::from_le_bytes(
            encoded.bytes[(fwd_off + 1) as usize..(fwd_off + 5) as usize]
                .try_into()
                .unwrap(),
        );
        let target = 0x5000u32
            .wrapping_add(fwd_off + 5)
            .wrapping_add(disp as u32);
        assert_eq!(Some(target - 0x5000), encoded.offset_of(bottom));
    }

    #[test]
    fn semantic_round_trip_after_invalidation() {
        // decode -> mutate (invalidate raw) -> encode -> decode must agree.
        let originals: Vec<Vec<u8>> = vec![
            vec![0x2b, 0x46, 0x1c],             // sub mem, eax
            vec![0x0f, 0xb7, 0x4e, 0x08],       // movzx
            vec![0xc1, 0xe1, 0x07],             // shl imm
            vec![0xf7, 0xdb],                   // neg ebx
            vec![0x6b, 0xc3, 0x09],             // imul eax, ebx, 9
            vec![0x0f, 0x94, 0xc1],             // setz %cl
            vec![0x87, 0xd9],                   // xchg
            vec![0xc7, 0x45, 0xfc, 1, 0, 0, 0], // mov $1 -> -4(%ebp)
        ];
        for bytes in originals {
            let (mut i, _) = decode_instr(&bytes, 0).unwrap();
            i.invalidate_raw();
            let re = encode_instr(&i, 0, &no_labels).unwrap();
            let (j, _) = decode_instr(&re, 0).unwrap();
            assert_eq!(i.opcode(), j.opcode(), "bytes {bytes:x?}");
            assert_eq!(i.srcs(), j.srcs(), "bytes {bytes:x?}");
            assert_eq!(i.dsts(), j.dsts(), "bytes {bytes:x?}");
        }
    }

    #[test]
    fn ret_forms() {
        assert_eq!(enc(&create::ret()), vec![0xC3]);
        assert_eq!(enc(&create::ret_imm(8)), vec![0xC2, 0x08, 0x00]);
    }

    #[test]
    fn push_pc_uses_imm32_form() {
        let i = create::push(Opnd::Pc(0x0040_1234));
        assert_eq!(enc(&i), vec![0x68, 0x34, 0x12, 0x40, 0x00]);
    }
}
