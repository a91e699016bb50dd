//! Property-style sweeps driven by a deterministic xorshift PRNG (no
//! external dependencies): decoding is the left inverse of encoding on
//! random instruction soup, and the liveness analysis is invariant under an
//! encode/decode round-trip of a whole list, and the size-only layout pass
//! agrees with a full encode on the same lists.

use rio_ia32::encode::{encode_list, ListLayout};
use rio_ia32::liveness::Liveness;
use rio_ia32::{
    create, decode_instr, effects, encode_instr, Instr, InstrList, Level, MemRef, OpSize, Opnd,
    Reg, Target,
};

/// xorshift64* — deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Semantic equality: everything the engine relies on, ignoring the raw
/// byte image (re-encoding may legally pick a different template, e.g.
/// rel8 vs rel32 for a direct branch).
fn semantically_equal(a: &Instr, b: &Instr) -> bool {
    a.opcode() == b.opcode()
        && a.srcs() == b.srcs()
        && a.dsts() == b.dsts()
        && a.target() == b.target()
        && effects(a).uses == effects(b).uses
        && effects(a).writes == effects(b).writes
}

#[test]
fn decode_is_left_inverse_of_encode_on_random_soup() {
    let mut rng = Rng::new(0x5EED_CAFE);
    let pc = 0x40_0000;
    let mut decoded = 0u32;
    for _ in 0..60_000 {
        let mut bytes = [0u8; 12];
        for b in &mut bytes {
            *b = rng.next_u64() as u8;
        }
        let Ok((instr, len)) = decode_instr(&bytes, pc) else {
            continue;
        };
        decoded += 1;
        let encoded = encode_instr(&instr, pc, &|_| None)
            .unwrap_or_else(|e| panic!("decoded {bytes:02x?} but cannot re-encode: {e:?}"));
        let (again, len2) = decode_instr(&encoded, pc)
            .unwrap_or_else(|e| panic!("re-encoded {encoded:02x?} does not decode: {e:?}"));
        assert!(
            semantically_equal(&instr, &again),
            "round-trip changed {bytes:02x?} (len {len}) into {encoded:02x?} (len {len2}):\
             \n  {instr:?}\n  {again:?}"
        );
        // When the encoder reproduces the original bytes (the common case),
        // the round-trip must be the strict identity.
        if encoded[..] == bytes[..len as usize] {
            assert_eq!(again, instr);
        }
    }
    // The sweep must actually exercise the decoder, not skip everything.
    assert!(decoded > 5_000, "only {decoded} random buffers decoded");
}

const REGS: [Reg; 7] = [
    Reg::Eax,
    Reg::Ebx,
    Reg::Ecx,
    Reg::Edx,
    Reg::Esi,
    Reg::Edi,
    Reg::Ebp,
];

/// One random non-CTI instruction over the general registers.
fn random_instr(rng: &mut Rng) -> Instr {
    let r = |rng: &mut Rng| REGS[rng.below(REGS.len() as u64) as usize];
    let mem = |rng: &mut Rng| MemRef::base_disp(r(rng), (rng.below(64) as i32) * 4, OpSize::S32);
    let rm = |rng: &mut Rng| {
        if rng.below(3) == 0 {
            Opnd::Mem(mem(rng))
        } else {
            Opnd::reg(r(rng))
        }
    };
    let src = |rng: &mut Rng| match rng.below(4) {
        0 => Opnd::imm32(rng.below(1 << 20) as i32),
        1 => Opnd::Mem(mem(rng)),
        _ => Opnd::reg(r(rng)),
    };
    match rng.below(12) {
        0 => create::mov(Opnd::reg(r(rng)), src(rng)),
        1 => create::mov(Opnd::Mem(mem(rng)), Opnd::reg(r(rng))),
        2 => create::add(Opnd::reg(r(rng)), src(rng)),
        3 => create::sub(Opnd::reg(r(rng)), src(rng)),
        4 => create::adc(Opnd::reg(r(rng)), Opnd::reg(r(rng))),
        5 => create::and(Opnd::reg(r(rng)), src(rng)),
        6 => create::xor(Opnd::reg(r(rng)), Opnd::reg(r(rng))),
        7 => create::cmp(Opnd::reg(r(rng)), src(rng)),
        8 => create::test(Opnd::reg(r(rng)), Opnd::reg(r(rng))),
        9 => create::inc(rm(rng)),
        10 => create::dec(rm(rng)),
        _ => create::lea(r(rng), mem(rng)),
    }
}

#[test]
fn liveness_is_invariant_under_encode_decode_roundtrip() {
    let mut rng = Rng::new(0xD1CE_D1CE);
    let pc = 0x40_0000;
    for _ in 0..2_000 {
        // A random straight-line block ending in a direct jump.
        let mut il = InstrList::new();
        for _ in 0..(4 + rng.below(8)) {
            il.push_back(random_instr(&mut rng));
        }
        il.push_back(create::jmp(Target::Pc(0x41_0000)));

        let bytes = encode_list(&il, pc).expect("random block encodes").bytes;
        let back = InstrList::decode_block(&bytes, pc, Level::L3).expect("re-decodes");

        let ids_a: Vec<_> = il.ids().collect();
        let ids_b: Vec<_> = back.ids().collect();
        assert_eq!(ids_a.len(), ids_b.len(), "instruction count changed");

        let live_a = Liveness::analyze(&il);
        let live_b = Liveness::analyze(&back);
        for (ia, ib) in ids_a.iter().zip(&ids_b) {
            assert_eq!(
                live_a.live_before(*ia),
                live_b.live_before(*ib),
                "live-before diverged at {:?} vs {:?}",
                il.get(*ia),
                back.get(*ib)
            );
            assert_eq!(
                live_a.live_after(*ia),
                live_b.live_after(*ib),
                "live-after diverged at {:?} vs {:?}",
                il.get(*ia),
                back.get(*ib)
            );
        }
    }
}

#[test]
fn size_only_pass_matches_full_encode() {
    let mut rng = Rng::new(0x51_2E_0F);
    let pc = 0x40_0000;
    for _ in 0..2_000 {
        // The liveness sweep's random blocks, with labels and intra-list
        // branches mixed in.
        let mut il = InstrList::new();
        let mut labels = vec![il.push_back(Instr::label())];
        for _ in 0..(4 + rng.below(8)) {
            match rng.below(6) {
                0 => labels.push(il.push_back(Instr::label())),
                1 => {
                    let mut j = create::jcc(rio_ia32::Cc::Nz, Target::Pc(0));
                    j.set_target(Target::Instr(
                        labels[rng.below(labels.len() as u64) as usize],
                    ));
                    il.push_back(j);
                }
                _ => {
                    il.push_back(random_instr(&mut rng));
                }
            }
        }
        il.push_back(create::jmp(Target::Pc(0x41_0000)));

        let encoded = encode_list(&il, pc).expect("random block encodes");
        let back = InstrList::decode_block(&encoded.bytes, pc, Level::L3).expect("re-decodes");
        for list in [&il, &back] {
            let full = encode_list(list, pc).expect("encodes");
            for sized_at in [pc, 0] {
                let layout = ListLayout::of(list, sized_at).expect("sizes");
                assert_eq!(layout.total_len() as usize, full.bytes.len());
                for id in list.ids() {
                    assert_eq!(layout.offset_of(id), full.offset_of(id));
                    assert_eq!(layout.len_of(id), full.len_of(id));
                }
            }
        }
    }
}
