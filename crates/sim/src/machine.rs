//! The simulated machine: memory + CPU + cost model + interpreter.
//!
//! The interpreter executes machine code *from memory bytes* — the same
//! bytes the RIO encoder emits into the code cache — so the entire
//! decode/translate/encode/link path of the dynamic translator is exercised
//! for real. A direct-mapped decoded-instruction cache makes interpretation
//! fast; the RIO core invalidates it whenever it patches code (linking,
//! fragment replacement), modelling self-modifying code correctly.

use rio_ia32::{decode_instr, Instr, MemRef, OpSize, Opcode, Opnd, Reg};

use crate::cpu::{
    alu_add, alu_logic, alu_sar, alu_shl, alu_shr, alu_sub, CpuExit, CpuState, FaultKind,
};
use crate::image::Image;
use crate::mem::Memory;
use crate::perf::{CostModel, Counters, CpuKind};

/// A half-open `[start, end)` address range the CPU may execute from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecRegion {
    /// Inclusive start.
    pub start: u32,
    /// Exclusive end.
    pub end: u32,
}

impl ExecRegion {
    /// Construct a region.
    pub fn new(start: u32, end: u32) -> ExecRegion {
        ExecRegion { start, end }
    }

    /// Whether `pc` falls inside the region.
    pub fn contains(&self, pc: u32) -> bool {
        pc >= self.start && pc < self.end
    }
}

/// Compact executable form of one decoded instruction.
#[derive(Clone, Copy, Debug)]
struct Lowered {
    op: Opcode,
    len: u32,
    ndst: u8,
    srcs: [LOpnd; 4],
    dsts: [LOpnd; 4],
}

#[derive(Clone, Copy, Debug)]
enum LOpnd {
    None,
    Reg(Reg),
    Imm(i32, OpSize),
    Mem(MemRef),
    Pc(u32),
}

impl LOpnd {
    fn from_opnd(op: &Opnd) -> LOpnd {
        match op {
            Opnd::Reg(r) => LOpnd::Reg(*r),
            Opnd::Imm(v, s) => LOpnd::Imm(*v, *s),
            Opnd::Mem(m) => LOpnd::Mem(*m),
            Opnd::Pc(pc) => LOpnd::Pc(*pc),
            Opnd::Instr(_) => LOpnd::None, // labels never reach execution
        }
    }

    fn size(&self) -> OpSize {
        match self {
            LOpnd::Reg(r) => r.size(),
            LOpnd::Imm(_, s) => *s,
            LOpnd::Mem(m) => m.size,
            _ => OpSize::S32,
        }
    }
}

fn lower(instr: &Instr, len: u32) -> Lowered {
    let mut l = Lowered {
        op: instr.opcode().expect("lower requires decoded instr"),
        len,
        ndst: instr.dsts().len().min(4) as u8,
        srcs: [LOpnd::None; 4],
        dsts: [LOpnd::None; 4],
    };
    for (i, s) in instr.srcs().iter().take(4).enumerate() {
        l.srcs[i] = LOpnd::from_opnd(s);
    }
    for (i, d) in instr.dsts().iter().take(4).enumerate() {
        l.dsts[i] = LOpnd::from_opnd(d);
    }
    l
}

const DCACHE_BITS: usize = 15;
const DCACHE_SIZE: usize = 1 << DCACHE_BITS;
/// Decode-cache slots per chunk; chunks are allocated on first store.
const DCACHE_CHUNK_BITS: usize = 6;
const DCACHE_CHUNK: usize = 1 << DCACHE_CHUNK_BITS;
/// Longest instruction fetch: a decode at `pc` can consume bytes up to
/// `pc + MAX_INSTR_BYTES - 1`, so a write at `addr` can stale any decode
/// starting as far back as `addr - MAX_INSTR_BYTES + 1`.
const MAX_INSTR_BYTES: u32 = 16;

/// Host-side decode-cache statistics (see [`Machine::decode_stats`]).
///
/// They describe how the interpreter spent host time, not the simulated
/// program, so they are kept out of [`Counters`] and every
/// deterministic report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Instruction fetches served by a cached decode.
    pub hits: u64,
    /// Instruction fetches decoded from memory (including re-decodes of a
    /// stale hit under verification, and bytes that failed to decode).
    pub misses: u64,
    /// Writes (interpreted guest stores and
    /// [`Machine::invalidate_code_range`] calls) whose pages held a cached
    /// decode, so the slots they may overlap were probed.
    pub range_invalidations: u64,
    /// Writes whose pages held no cached decode, so no slot was probed.
    pub stores_skipped: u64,
}

const PAGE_SHIFT: u32 = 12;
/// Pages in the 4 GiB address space.
const PAGES: u64 = 1 << (32 - PAGE_SHIFT);
/// Words per code-page leaf: 16 × 64 bits cover 1024 pages (4 MiB).
const LEAF_WORDS: usize = 16;
const LEAF_SHIFT: u32 = 10;

/// One bit per 4 KiB page that holds any byte of a cached decode, as a
/// two-level bitmap: a 1024-entry directory (allocated on the first mark)
/// of 16-word leaves (allocated on the first mark in their 4 MiB).
///
/// Bits are only ever set, so the map is a superset of the pages of the
/// live decodes: a write to unmarked pages cannot stale any decode.
#[derive(Default)]
struct CodePages {
    dir: Vec<Option<Box<[u64; LEAF_WORDS]>>>,
}

impl CodePages {
    /// Mark every page holding a byte of `[addr, addr + len)` (wrapping).
    fn mark_range(&mut self, addr: u32, len: u32) {
        for page in pages(addr, len) {
            if self.dir.is_empty() {
                self.dir = vec![None; 1 << LEAF_SHIFT];
            }
            let leaf = self.dir[(page >> LEAF_SHIFT) as usize].get_or_insert_with(Default::default);
            leaf[((page >> 6) as usize) & (LEAF_WORDS - 1)] |= 1 << (page & 63);
        }
    }

    fn marked(&self, page: u32) -> bool {
        match self.dir.get((page >> LEAF_SHIFT) as usize) {
            Some(Some(leaf)) => {
                leaf[((page >> 6) as usize) & (LEAF_WORDS - 1)] >> (page & 63) & 1 != 0
            }
            _ => false,
        }
    }

    /// Whether any page holding a byte of `[addr, addr + len)` (wrapping)
    /// is marked.
    fn any_marked(&self, addr: u32, len: u32) -> bool {
        pages(addr, len).any(|page| self.marked(page))
    }
}

/// The pages holding the bytes of `[addr, addr + len)`, wrapping past
/// `0xFFFF_FFFF` exactly as memory accesses do.
fn pages(addr: u32, len: u32) -> impl Iterator<Item = u32> {
    let first = u64::from(addr >> PAGE_SHIFT);
    let span = if len == 0 {
        0
    } else {
        ((u64::from(addr & ((1 << PAGE_SHIFT) - 1)) + u64::from(len) - 1) >> PAGE_SHIFT) + 1
    };
    (first..first + span.min(PAGES)).map(|p| (p % PAGES) as u32)
}

#[derive(Clone, Copy)]
struct DecodeCacheEntry {
    pc: u32,
    version: u64,
    /// Raw bytes the decode was made from (first `lowered.len` are live);
    /// kept so verification mode can prove a hit is not stale.
    bytes: [u8; 16],
    lowered: Lowered,
}

type DecodeChunk = [Option<DecodeCacheEntry>; DCACHE_CHUNK];

/// Direct-mapped software decode cache keyed by pc.
///
/// The `DCACHE_SIZE` slots are grouped into chunks of `DCACHE_CHUNK` that
/// come into existence when a decode is first stored in one, so a machine
/// that runs little code never allocates or clears the whole cache.
#[derive(Default)]
struct DecodeCache {
    chunks: Vec<Option<Box<DecodeChunk>>>,
    version: u64,
    /// The pages holding cached decodes, so that writes to data pages skip
    /// the slot probes.
    pages: CodePages,
    stats: DecodeStats,
}

impl DecodeCache {
    fn new() -> DecodeCache {
        DecodeCache {
            chunks: vec![None; DCACHE_SIZE / DCACHE_CHUNK],
            ..DecodeCache::default()
        }
    }

    fn index(pc: u32) -> usize {
        ((pc ^ (pc >> DCACHE_BITS as u32)) as usize) & (DCACHE_SIZE - 1)
    }

    fn get(&self, pc: u32) -> Option<&DecodeCacheEntry> {
        let i = Self::index(pc);
        let chunk = self.chunks[i >> DCACHE_CHUNK_BITS].as_deref()?;
        match &chunk[i & (DCACHE_CHUNK - 1)] {
            Some(e) if e.pc == pc && e.version == self.version => Some(e),
            _ => None,
        }
    }

    fn put(&mut self, pc: u32, bytes: [u8; 16], lowered: Lowered) -> &Lowered {
        self.pages.mark_range(pc, lowered.len);
        let i = Self::index(pc);
        let chunk = self.chunks[i >> DCACHE_CHUNK_BITS]
            .get_or_insert_with(|| Box::new([None; DCACHE_CHUNK]));
        &chunk[i & (DCACHE_CHUNK - 1)]
            .insert(DecodeCacheEntry {
                pc,
                version: self.version,
                bytes,
                lowered,
            })
            .lowered
    }

    fn invalidate_all(&mut self) {
        self.version += 1;
    }

    /// Drop every cached decode whose bytes may overlap the `len` bytes
    /// from `start` (wrapping past `0xFFFF_FFFF`, as memory does). Nothing
    /// is probed unless one of their pages holds a cached decode. A decode
    /// starting at `pc` covers at most `[pc, pc + 16)`, so only the pcs
    /// from `start - 15` up to the last written byte can be affected; each
    /// lives at its own direct-mapped slot, so the walk is bounded by
    /// `len + 15` probes.
    fn invalidate_range(&mut self, start: u32, len: u32) {
        if !self.pages.any_marked(start, len) {
            self.stats.stores_skipped += 1;
            return;
        }
        self.stats.range_invalidations += 1;
        let lo = start.wrapping_sub(MAX_INSTR_BYTES - 1);
        let probes = (u64::from(len) + u64::from(MAX_INSTR_BYTES - 1)).min(1 << 32);
        for k in 0..probes {
            let pc = lo.wrapping_add(k as u32);
            let i = Self::index(pc);
            let Some(chunk) = self.chunks[i >> DCACHE_CHUNK_BITS].as_deref_mut() else {
                continue;
            };
            let slot = &mut chunk[i & (DCACHE_CHUNK - 1)];
            if matches!(slot, Some(e) if e.pc == pc) {
                *slot = None;
            }
        }
    }
}

/// The simulated machine.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: CpuState,
    /// Memory.
    pub mem: Memory,
    /// The cycle cost model and predictor state.
    pub cost: CostModel,
    /// Accumulated execution statistics.
    pub counters: Counters,
    dcache: DecodeCache,
    regions: Vec<ExecRegion>,
    /// Guarded data regions: any load/store touching one raises
    /// [`FaultKind::MemFault`] *before* the instruction mutates state.
    /// Empty by default (the sparse memory otherwise zero-fills).
    guards: Vec<ExecRegion>,
    /// One-shot injected fault: raised in place of the next instruction
    /// once `counters.instructions` reaches the trigger count.
    inject: Option<(u64, FaultKind)>,
    /// Watched code regions: a committed guest store touching one stops
    /// execution with [`CpuExit::CodeWrite`]. Empty by default.
    watches: Vec<ExecRegion>,
    /// Store into a watched region recorded by the current instruction
    /// (`(addr, len)`), turned into an exit at the end of the step.
    step_code_write: Option<(u32, u32)>,
    /// Stores (`(addr, len)`) made by the current instruction, applied to
    /// the decode cache once it has finished: it executes a decode borrowed
    /// from the cache, and nothing reads the cache inside an instruction.
    pending_stores: Vec<(u32, u32)>,
    /// When set, every decode-cache hit is re-verified against the live
    /// memory bytes; mismatches count in `stale_decode_hits`.
    verify_decodes: bool,
    stale_decode_hits: u64,
    step_loads: u64,
    step_stores: u64,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Machine(eip={:#x}, {})", self.cpu.eip, self.counters)
    }
}

impl Machine {
    /// Create a machine of the given processor family with empty memory.
    pub fn new(kind: CpuKind) -> Machine {
        Machine {
            cpu: CpuState::new(),
            mem: Memory::new(),
            cost: CostModel::new(kind),
            counters: Counters::default(),
            dcache: DecodeCache::new(),
            regions: Vec::new(),
            guards: Vec::new(),
            inject: None,
            watches: Vec::new(),
            step_code_write: None,
            pending_stores: Vec::new(),
            verify_decodes: false,
            stale_decode_hits: 0,
            step_loads: 0,
            step_stores: 0,
        }
    }

    /// Load an image: code + data into memory, `eip` at the entry point,
    /// `esp` at the stack top, and the code range as the sole exec region.
    pub fn load_image(&mut self, img: &Image) {
        img.load(&mut self.mem);
        self.cpu.eip = img.entry;
        self.cpu.set_reg(Reg::Esp, Image::STACK_TOP - 16);
        let (s, e) = img.code_range();
        self.regions = vec![ExecRegion::new(s, e)];
    }

    /// Replace the set of regions the CPU may execute from. Control leaving
    /// them stops [`Machine::run`] with [`CpuExit::OutOfRegion`].
    pub fn set_exec_regions(&mut self, regions: Vec<ExecRegion>) {
        self.regions = regions;
    }

    /// Current execution regions.
    pub fn exec_regions(&self) -> &[ExecRegion] {
        &self.regions
    }

    /// Install guarded data regions: any memory access touching one raises
    /// a precise [`FaultKind::MemFault`] before the instruction commits any
    /// architectural state. The default (empty) set never faults — the
    /// sparse memory zero-fills unmapped pages.
    pub fn set_guard_regions(&mut self, guards: Vec<ExecRegion>) {
        self.guards = guards;
    }

    /// Current guard regions.
    pub fn guard_regions(&self) -> &[ExecRegion] {
        &self.guards
    }

    /// Install watched code regions: a guest store whose bytes touch one
    /// stops execution with [`CpuExit::CodeWrite`] *after* the store (and
    /// the whole instruction) has committed, so resuming at `eip` makes
    /// forward progress even when an instruction overwrites itself. Writes
    /// made through [`Machine::mem`] directly (fragment emission, link
    /// patching) are exempt — only interpreted guest stores are monitored.
    pub fn set_watch_regions(&mut self, watches: Vec<ExecRegion>) {
        self.watches = watches;
    }

    /// Current watch regions.
    pub fn watch_regions(&self) -> &[ExecRegion] {
        &self.watches
    }

    /// Enable or disable decode verification: every decode-cache hit is
    /// compared against the live memory bytes, and a mismatch (a stale
    /// decode that would have executed) is counted in
    /// [`Machine::stale_decode_hits`] and re-decoded from memory.
    pub fn set_verify_decodes(&mut self, on: bool) {
        self.verify_decodes = on;
    }

    /// Number of decode-cache hits whose cached bytes no longer matched
    /// memory (only counted while verification is enabled). Staying zero
    /// proves range invalidation never let a stale decode execute.
    pub fn stale_decode_hits(&self) -> u64 {
        self.stale_decode_hits
    }

    /// Decode-cache hit, miss and invalidation counts since the machine was
    /// created. Host-side only: they never enter [`Counters`] or cycles.
    pub fn decode_stats(&self) -> DecodeStats {
        self.dcache.stats
    }

    /// FNV-1a digest of the application-visible machine state: the eight
    /// general-purpose registers plus the current bytes of every data
    /// segment the image declared (globals and arrays). `eip` is excluded
    /// (under the engine it is a code-cache address by design) and so is
    /// `eflags` (transformation clients may legally rewrite dead flag
    /// updates, e.g. `inc` → `add`). Two runs of the same image that end
    /// with the same digest agree on every register and every global.
    pub fn app_state_digest(&self, image: &Image) -> u64 {
        use rio_ia32::Reg as R;
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        for r in [
            R::Eax,
            R::Ecx,
            R::Edx,
            R::Ebx,
            R::Esp,
            R::Ebp,
            R::Esi,
            R::Edi,
        ] {
            for b in self.cpu.reg(r).to_le_bytes() {
                mix(b);
            }
        }
        for (base, bytes) in &image.data {
            for off in 0..bytes.len() as u32 {
                mix(self.mem.read_u8(base + off));
            }
        }
        h
    }

    /// Arm a one-shot fault injection: once the machine has executed
    /// `instr_count` instructions, the next instruction raises `kind`
    /// instead of executing (a precise, resumable boundary). The trigger
    /// clears when it fires, so the machine can be resumed past it.
    pub fn inject_fault_at(&mut self, instr_count: u64, kind: FaultKind) {
        self.inject = Some((instr_count, kind));
    }

    /// The armed (not yet fired) injection, if any.
    pub fn pending_injection(&self) -> Option<(u64, FaultKind)> {
        self.inject
    }

    /// Charge runtime-overhead cycles (dispatch, hashtable lookup,
    /// optimization time) to the cycle counter.
    pub fn charge(&mut self, cycles: u64) {
        self.counters.cycles += cycles;
        self.counters.charged_overhead += cycles;
    }

    /// Invalidate the *entire* decoded-instruction cache. Needed only when
    /// code changed at unknown addresses; prefer
    /// [`Machine::invalidate_code_range`], which the engine uses on every
    /// fragment emission and link patch.
    pub fn invalidate_code(&mut self) {
        self.dcache.invalidate_all();
    }

    /// Invalidate decoded instructions overlapping `[addr, addr + len)`
    /// (wrapping past `0xFFFF_FFFF`, as memory does). Must be called after
    /// any write to memory that may hold code; cost is bounded by
    /// `len + 15` cache probes, and none when no page of the range holds a
    /// decode, so hot emit/patch paths never wipe unrelated decodes.
    pub fn invalidate_code_range(&mut self, addr: u32, len: u32) {
        self.dcache.invalidate_range(addr, len);
    }

    /// Run until an exit condition with a default fuel of 2^44 steps.
    pub fn run(&mut self) -> CpuExit {
        self.run_steps(1 << 44)
    }

    /// Run at most `max_steps` instructions.
    pub fn run_steps(&mut self, max_steps: u64) -> CpuExit {
        self.with_dcache(|m, dcache| m.run_in(dcache, max_steps))
    }

    /// Execute exactly one instruction (region checks are the caller's
    /// responsibility). Returns `Some(exit)` if the instruction stops
    /// execution.
    pub fn step(&mut self) -> Option<CpuExit> {
        self.with_dcache(Machine::step_in)
    }

    /// Run `f` with the decode cache taken out of `self`, so that each
    /// instruction executes a decode borrowed from the cache in place
    /// (`self.dcache` is an empty placeholder meanwhile).
    fn with_dcache<R>(&mut self, f: impl FnOnce(&mut Machine, &mut DecodeCache) -> R) -> R {
        let mut dcache = std::mem::take(&mut self.dcache);
        let r = f(self, &mut dcache);
        self.dcache = dcache;
        r
    }

    fn run_in(&mut self, dcache: &mut DecodeCache, max_steps: u64) -> CpuExit {
        // The region holding `eip`, rescanned only when `eip` leaves it
        // (the regions cannot change while the machine runs).
        let mut region = ExecRegion::new(0, 0);
        for _ in 0..max_steps {
            let pc = self.cpu.eip;
            if !region.contains(pc) {
                match self.regions.iter().find(|r| r.contains(pc)) {
                    Some(r) => region = *r,
                    None => return CpuExit::OutOfRegion(pc),
                }
            }
            if let Some(exit) = self.step_in(dcache) {
                return exit;
            }
        }
        CpuExit::FuelExhausted
    }

    /// Fetch, execute and retire the instruction at `eip`: the one
    /// execution path behind [`Machine::step`] and [`Machine::run_steps`].
    #[inline(always)]
    fn step_in(&mut self, dcache: &mut DecodeCache) -> Option<CpuExit> {
        let pc = self.cpu.eip;
        if let Some((at, kind)) = self.inject {
            if self.counters.instructions >= at {
                self.inject = None; // one-shot: resuming runs past it
                return Some(CpuExit::Fault { kind, pc, addr: pc });
            }
        }
        let exit = match self.fetch(dcache, pc) {
            Ok(l) => self.exec(pc, l),
            Err(fault) => return Some(fault),
        };
        if !self.pending_stores.is_empty() {
            for (addr, len) in self.pending_stores.drain(..) {
                dcache.invalidate_range(addr, len);
            }
        }
        exit
    }

    /// The decode of the instruction at `pc`, from the cache or freshly
    /// decoded from memory (and then cached).
    #[inline(always)]
    fn fetch<'d>(&mut self, dcache: &'d mut DecodeCache, pc: u32) -> Result<&'d Lowered, CpuExit> {
        let hit = match dcache.get(pc) {
            Some(e) if self.verify_decodes => {
                // Verification mode: prove the hit against live memory.
                let len = e.lowered.len as usize;
                let mut buf = [0u8; 16];
                self.mem.read_bytes(pc, &mut buf[..len]);
                let fresh = buf[..len] == e.bytes[..len];
                if !fresh {
                    self.stale_decode_hits += 1;
                }
                fresh
            }
            Some(_) => true,
            None => false,
        };
        if !hit {
            return self.decode(dcache, pc);
        }
        dcache.stats.hits += 1;
        match dcache.get(pc) {
            Some(e) => Ok(&e.lowered),
            None => unreachable!("a hit at {pc:#x} is cached"),
        }
    }

    /// Decode the instruction at `pc` from memory into the cache.
    #[cold]
    fn decode<'d>(&mut self, dcache: &'d mut DecodeCache, pc: u32) -> Result<&'d Lowered, CpuExit> {
        dcache.stats.misses += 1;
        let mut buf = [0u8; 16];
        self.mem.read_bytes(pc, &mut buf);
        let Ok((instr, len)) = decode_instr(&buf, pc) else {
            return Err(CpuExit::Fault {
                kind: FaultKind::InvalidOpcode,
                pc,
                addr: pc,
            });
        };
        Ok(dcache.put(pc, buf, lower(&instr, len)))
    }

    #[inline(always)]
    fn addr_of(&self, m: &MemRef) -> u32 {
        let base = m.base.map_or(0, |r| self.cpu.reg(r));
        let index = m.index.map_or(0, |r| self.cpu.reg(r));
        base.wrapping_add(index.wrapping_mul(m.scale as u32))
            .wrapping_add(m.disp as u32)
    }

    /// First guarded byte of `[addr, addr + bytes)`, if any.
    fn guarded(&self, addr: u32, bytes: u32) -> Option<u32> {
        (0..bytes)
            .map(|i| addr.wrapping_add(i))
            .find(|a| self.guards.iter().any(|g| g.contains(*a)))
    }

    /// Check every memory address the instruction will touch against the
    /// guard regions — *before* execution, so a [`FaultKind::MemFault`] is
    /// precise (no architectural state has changed).
    fn check_guards(&self, pc: u32, l: &Lowered) -> Option<CpuExit> {
        let fault = |addr| {
            Some(CpuExit::Fault {
                kind: FaultKind::MemFault,
                pc,
                addr,
            })
        };
        // Explicit memory operands (`lea` only computes the address).
        if l.op != Opcode::Lea {
            for op in l.srcs.iter().chain(l.dsts.iter()) {
                if let LOpnd::Mem(m) = op {
                    if let Some(bad) = self.guarded(self.addr_of(m), m.size.bytes()) {
                        return fault(bad);
                    }
                }
            }
        }
        // Implicit stack accesses.
        let esp = self.cpu.reg(Reg::Esp);
        match l.op {
            Opcode::Push | Opcode::Pushfd | Opcode::Call | Opcode::CallInd => {
                if let Some(bad) = self.guarded(esp.wrapping_sub(4), 4) {
                    return fault(bad);
                }
            }
            Opcode::Pop | Opcode::Popfd | Opcode::Ret => {
                if let Some(bad) = self.guarded(esp, 4) {
                    return fault(bad);
                }
            }
            _ => {}
        }
        None
    }

    #[inline(always)]
    fn read(&mut self, op: &LOpnd) -> u32 {
        match op {
            LOpnd::Reg(r) => self.cpu.reg(*r),
            LOpnd::Imm(v, _) => *v as u32,
            LOpnd::Pc(pc) => *pc,
            LOpnd::Mem(m) => {
                self.step_loads += 1;
                let a = self.addr_of(m);
                match m.size {
                    OpSize::S8 => self.mem.read_u8(a) as u32,
                    OpSize::S16 => self.mem.read_u16(a) as u32,
                    OpSize::S32 => self.mem.read_u32(a),
                }
            }
            LOpnd::None => 0,
        }
    }

    /// Bookkeeping for every interpreted guest store: queue the written
    /// bytes for decode-cache invalidation at the end of the instruction
    /// (so self-modifying code is correct in every mode, with no manual
    /// invalidation), and flag stores that land in a watched code region.
    /// Like the store itself, the range wraps past `0xFFFF_FFFF`.
    #[inline(always)]
    fn note_store(&mut self, addr: u32, bytes: u32) {
        self.step_stores += 1;
        self.pending_stores.push((addr, bytes));
        let overlaps = |w: &ExecRegion| {
            w.start < w.end
                && (addr.wrapping_sub(w.start) < w.end - w.start
                    || w.start.wrapping_sub(addr) < bytes)
        };
        if self.watches.iter().any(overlaps) {
            self.step_code_write = Some(match self.step_code_write {
                None => (addr, bytes),
                Some((a0, l0)) => {
                    let end = addr.saturating_add(bytes);
                    let lo = a0.min(addr);
                    let hi = (a0.saturating_add(l0)).max(end);
                    (lo, hi - lo)
                }
            });
        }
    }

    #[inline(always)]
    fn write(&mut self, op: &LOpnd, v: u32) {
        match op {
            LOpnd::Reg(r) => self.cpu.set_reg(*r, v),
            LOpnd::Mem(m) => {
                let a = self.addr_of(m);
                self.note_store(a, m.size.bytes());
                match m.size {
                    OpSize::S8 => self.mem.write_u8(a, v as u8),
                    OpSize::S16 => self.mem.write_u16(a, v as u16),
                    OpSize::S32 => self.mem.write_u32(a, v),
                }
            }
            _ => {}
        }
    }

    #[inline(always)]
    fn push32(&mut self, v: u32) {
        let esp = self.cpu.reg(Reg::Esp).wrapping_sub(4);
        self.cpu.set_reg(Reg::Esp, esp);
        self.note_store(esp, 4);
        self.mem.write_u32(esp, v);
    }

    #[inline(always)]
    fn pop32(&mut self) -> u32 {
        let esp = self.cpu.reg(Reg::Esp);
        self.step_loads += 1;
        let v = self.mem.read_u32(esp);
        self.cpu.set_reg(Reg::Esp, esp.wrapping_add(4));
        v
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, pc: u32, l: &Lowered) -> Option<CpuExit> {
        use rio_ia32::Eflags;
        self.step_loads = 0;
        self.step_stores = 0;
        self.step_code_write = None;
        if !self.guards.is_empty() {
            if let Some(exit) = self.check_guards(pc, l) {
                return Some(exit);
            }
        }
        let next_pc = pc.wrapping_add(l.len);
        let mut new_eip = next_pc;
        let mut branch_penalty = 0u64;
        let mut exit: Option<CpuExit> = None;

        match l.op {
            Opcode::Mov => {
                let v = self.read(&l.srcs[0]);
                self.write(&l.dsts[0], v);
            }
            Opcode::Lea => {
                if let LOpnd::Mem(m) = l.srcs[0] {
                    let a = self.addr_of(&m);
                    self.write(&l.dsts[0], a);
                }
            }
            Opcode::Movzx => {
                let v = self.read(&l.srcs[0]); // reads zero-extended
                self.write(&l.dsts[0], v);
            }
            Opcode::Movsx => {
                let v = self.read(&l.srcs[0]);
                let sx = match l.srcs[0].size() {
                    OpSize::S8 => v as u8 as i8 as i32 as u32,
                    OpSize::S16 => v as u16 as i16 as i32 as u32,
                    OpSize::S32 => v,
                };
                self.write(&l.dsts[0], sx);
            }
            Opcode::Add | Opcode::Adc | Opcode::Sub | Opcode::Sbb => {
                let dst = l.dsts[0];
                let b = self.read(&l.srcs[0]);
                let a = self.read(&dst);
                let size = dst.size();
                let carry_in = if matches!(l.op, Opcode::Adc | Opcode::Sbb)
                    && self.cpu.eflags & Eflags::CF.0 != 0
                {
                    1
                } else {
                    0
                };
                let (res, f) = match l.op {
                    Opcode::Add | Opcode::Adc => alu_add(a, b, carry_in, size),
                    _ => alu_sub(a, b, carry_in, size),
                };
                self.write(&dst, res);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::And | Opcode::Or | Opcode::Xor => {
                let dst = l.dsts[0];
                let b = self.read(&l.srcs[0]);
                let a = self.read(&dst);
                let raw = match l.op {
                    Opcode::And => a & b,
                    Opcode::Or => a | b,
                    _ => a ^ b,
                };
                let (res, f) = alu_logic(raw, dst.size());
                self.write(&dst, res);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Cmp => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                let size = l.srcs[0].size().max(l.srcs[1].size());
                let (_, f) = alu_sub(a, b, 0, size);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Test => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                let size = l.srcs[0].size().max(l.srcs[1].size());
                let (_, f) = alu_logic(a & b, size);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Inc | Opcode::Dec => {
                let dst = l.dsts[0];
                let a = self.read(&dst);
                let (res, f) = if l.op == Opcode::Inc {
                    alu_add(a, 1, 0, dst.size())
                } else {
                    alu_sub(a, 1, 0, dst.size())
                };
                self.write(&dst, res);
                // inc/dec leave CF unchanged.
                self.cpu.set_flags(Eflags::NOT_CF, f);
            }
            Opcode::Neg => {
                let dst = l.dsts[0];
                let a = self.read(&dst);
                let (res, mut f) = alu_sub(0, a, 0, dst.size());
                // CF is set unless the operand was zero (alu_sub already
                // computes borrow 0 < a, which matches).
                if a == 0 {
                    f &= !Eflags::CF.0;
                }
                self.write(&dst, res);
                self.cpu.set_flags(Eflags::ALL6, f);
            }
            Opcode::Not => {
                let dst = l.dsts[0];
                let a = self.read(&dst);
                self.write(&dst, !a);
            }
            Opcode::Xchg => {
                let a = self.read(&l.srcs[0]);
                let b = self.read(&l.srcs[1]);
                self.write(&l.dsts[0], b);
                self.write(&l.dsts[1], a);
            }
            Opcode::Shl | Opcode::Shr | Opcode::Sar => {
                let dst = l.dsts[0];
                let count = self.read(&l.srcs[0]) & 31;
                if count != 0 {
                    let a = self.read(&dst);
                    let (res, f) = match l.op {
                        Opcode::Shl => alu_shl(a, count, dst.size()),
                        Opcode::Shr => alu_shr(a, count, dst.size()),
                        _ => alu_sar(a, count, dst.size()),
                    };
                    self.write(&dst, res);
                    self.cpu.set_flags(Eflags::ALL6, f);
                }
            }
            Opcode::Imul => {
                if l.ndst == 2 {
                    // One-operand form: edx:eax = eax * rm (signed).
                    let a = self.cpu.reg(Reg::Eax) as i32 as i64;
                    let b = self.read(&l.srcs[0]) as i32 as i64;
                    let wide = a * b;
                    self.cpu.set_reg(Reg::Eax, wide as u32);
                    self.cpu.set_reg(Reg::Edx, (wide >> 32) as u32);
                    let overflow = wide != (wide as i32 as i64);
                    self.set_mul_flags(overflow);
                } else {
                    let a = self.read(&l.srcs[0]) as i32 as i64;
                    let b = self.read(&l.srcs[1]) as i32 as i64;
                    let wide = a * b;
                    self.write(&l.dsts[0], wide as u32);
                    let overflow = wide != (wide as i32 as i64);
                    self.set_mul_flags(overflow);
                }
            }
            Opcode::Mul => {
                let a = self.cpu.reg(Reg::Eax) as u64;
                let b = self.read(&l.srcs[0]) as u64;
                let wide = a * b;
                self.cpu.set_reg(Reg::Eax, wide as u32);
                self.cpu.set_reg(Reg::Edx, (wide >> 32) as u32);
                self.set_mul_flags(wide >> 32 != 0);
            }
            Opcode::Div => {
                let divisor = self.read(&l.srcs[0]) as u64;
                let dividend =
                    ((self.cpu.reg(Reg::Edx) as u64) << 32) | self.cpu.reg(Reg::Eax) as u64;
                if divisor == 0 || dividend / divisor > u32::MAX as u64 {
                    return Some(CpuExit::Fault {
                        kind: FaultKind::DivideError,
                        pc,
                        addr: pc,
                    });
                }
                self.cpu.set_reg(Reg::Eax, (dividend / divisor) as u32);
                self.cpu.set_reg(Reg::Edx, (dividend % divisor) as u32);
            }
            Opcode::Idiv => {
                let divisor = self.read(&l.srcs[0]) as i32 as i64;
                let dividend = (((self.cpu.reg(Reg::Edx) as u64) << 32)
                    | self.cpu.reg(Reg::Eax) as u64) as i64;
                if divisor == 0 {
                    return Some(CpuExit::Fault {
                        kind: FaultKind::DivideError,
                        pc,
                        addr: pc,
                    });
                }
                let q = dividend.wrapping_div(divisor);
                if q != (q as i32 as i64) {
                    return Some(CpuExit::Fault {
                        kind: FaultKind::DivideError,
                        pc,
                        addr: pc,
                    });
                }
                self.cpu.set_reg(Reg::Eax, q as u32);
                self.cpu
                    .set_reg(Reg::Edx, dividend.wrapping_rem(divisor) as u32);
            }
            Opcode::Cdq => {
                let v = if self.cpu.reg(Reg::Eax) & 0x8000_0000 != 0 {
                    0xFFFF_FFFF
                } else {
                    0
                };
                self.cpu.set_reg(Reg::Edx, v);
            }
            Opcode::Cwde => {
                let v = self.cpu.reg(Reg::Ax) as u16 as i16 as i32 as u32;
                self.cpu.set_reg(Reg::Eax, v);
            }
            Opcode::Push => {
                let v = self.read(&l.srcs[0]);
                self.push32(v);
            }
            Opcode::Pop => {
                let v = self.pop32();
                self.write(&l.dsts[0], v);
            }
            Opcode::Pushfd => {
                let v = (self.cpu.eflags & Eflags::ALL6.0) | 0x2;
                self.push32(v);
            }
            Opcode::Popfd => {
                let v = self.pop32();
                self.cpu.set_flags(Eflags::ALL6, v);
            }
            Opcode::Lahf => {
                // AH = SF:ZF:0:AF:0:PF:1:CF.
                let f = self.cpu.eflags;
                let ah = (f & 0xFF) | 0x2;
                self.cpu.set_reg(Reg::Ah, ah);
            }
            Opcode::Sahf => {
                let ah = self.cpu.reg(Reg::Ah);
                let mask = Eflags(
                    Eflags::CF.0 | Eflags::PF.0 | Eflags::AF.0 | Eflags::ZF.0 | Eflags::SF.0,
                );
                self.cpu.set_flags(mask, ah);
            }
            Opcode::Set(cc) => {
                let v = self.cpu.cc_holds(cc) as u32;
                self.write(&l.dsts[0], v);
            }
            Opcode::Cmov(cc) => {
                // The load happens regardless of the condition (as on real
                // hardware); only the register write is conditional.
                let v = self.read(&l.srcs[0]);
                if self.cpu.cc_holds(cc) {
                    self.write(&l.dsts[0], v);
                }
            }
            Opcode::Rol | Opcode::Ror => {
                use rio_ia32::Eflags;
                let dst = l.dsts[0];
                let count = self.read(&l.srcs[0]) & 31;
                if count != 0 {
                    let a = self.read(&dst);
                    let bits = dst.size().bytes() * 8;
                    let c = count % bits;
                    let res = if l.op == Opcode::Rol {
                        a.rotate_left(c) // 32-bit only in the subset
                    } else {
                        a.rotate_right(c)
                    };
                    self.write(&dst, res);
                    // CF = bit rotated into position; OF approximated as
                    // written (architecturally defined only for count==1).
                    let cf = if l.op == Opcode::Rol {
                        res & 1
                    } else {
                        (res >> (bits - 1)) & 1
                    };
                    let mut f = 0;
                    if cf != 0 {
                        f |= Eflags::CF.0;
                    }
                    self.cpu.set_flags(Eflags(Eflags::CF.0 | Eflags::OF.0), f);
                }
            }
            Opcode::Bt => {
                use rio_ia32::Eflags;
                let base = self.read(&l.srcs[0]);
                let bit = self.read(&l.srcs[1]) & 31;
                let cf = (base >> bit) & 1;
                self.cpu
                    .set_flags(Eflags::CF, if cf != 0 { Eflags::CF.0 } else { 0 });
            }
            Opcode::Bswap => {
                let v = self.read(&l.dsts[0]);
                self.write(&l.dsts[0], v.swap_bytes());
            }
            Opcode::Nop => {}
            Opcode::Int3 => {
                exit = Some(CpuExit::Breakpoint);
            }
            Opcode::Int => {
                let n = self.read(&l.srcs[0]) as u8;
                self.cpu.eip = next_pc;
                // Account the instruction before returning.
                self.finish_step(l, 0);
                return Some(CpuExit::Syscall(n));
            }
            Opcode::Hlt => {
                self.finish_step(l, 0);
                return Some(CpuExit::Halt);
            }
            Opcode::Jmp => {
                new_eip = self.read(&l.srcs[0]);
                branch_penalty = self.cost.direct_branch(&mut self.counters);
            }
            Opcode::Jcc(cc) => {
                let taken = self.cpu.cc_holds(cc);
                if taken {
                    new_eip = self.read(&l.srcs[0]);
                }
                branch_penalty = self.cost.cond_branch(pc, taken, &mut self.counters);
            }
            Opcode::Jecxz => {
                let taken = self.cpu.reg(Reg::Ecx) == 0;
                if taken {
                    new_eip = self.read(&l.srcs[0]);
                }
                branch_penalty = self.cost.cond_branch(pc, taken, &mut self.counters);
            }
            Opcode::Call => {
                let target = self.read(&l.srcs[0]);
                self.push32(next_pc);
                self.cost.ras_push(next_pc);
                new_eip = target;
                branch_penalty = self.cost.direct_branch(&mut self.counters);
            }
            Opcode::CallInd => {
                let target = self.read(&l.srcs[0]);
                self.push32(next_pc);
                self.cost.ras_push(next_pc);
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, false, &mut self.counters);
            }
            Opcode::JmpInd => {
                let target = self.read(&l.srcs[0]);
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, false, &mut self.counters);
            }
            Opcode::Ret => {
                let target = self.pop32();
                if let LOpnd::Imm(extra, _) = l.srcs[0] {
                    let esp = self.cpu.reg(Reg::Esp).wrapping_add(extra as u32);
                    self.cpu.set_reg(Reg::Esp, esp);
                }
                new_eip = target;
                branch_penalty = self
                    .cost
                    .indirect_branch(pc, target, true, &mut self.counters);
            }
            Opcode::Label => {
                // A label pseudo-instruction reached the interpreter:
                // report it as the guest-visible invalid-opcode fault.
                return Some(CpuExit::Fault {
                    kind: FaultKind::InvalidOpcode,
                    pc,
                    addr: pc,
                });
            }
        }

        self.cpu.eip = new_eip;
        self.finish_step(l, branch_penalty);
        if exit.is_none() {
            // A committed store into a watched code region stops execution
            // *after* the instruction: state is architecturally complete
            // and `eip` is past the writer, so resumption cannot livelock.
            if let Some((addr, len)) = self.step_code_write.take() {
                return Some(CpuExit::CodeWrite { pc, addr, len });
            }
        }
        exit
    }

    fn set_mul_flags(&mut self, overflow: bool) {
        use rio_ia32::Eflags;
        let v = if overflow {
            Eflags::CF.0 | Eflags::OF.0
        } else {
            0
        };
        self.cpu.set_flags(Eflags::ALL6, v);
    }

    fn finish_step(&mut self, l: &Lowered, branch_penalty: u64) {
        self.counters.instructions += 1;
        self.counters.loads += self.step_loads;
        self.counters.stores += self.step_stores;
        self.counters.cycles += self
            .cost
            .instr_cost(l.op, self.step_loads, self.step_stores)
            + branch_penalty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, Cc, InstrList, Target};

    fn run_program(il: &InstrList) -> (Machine, CpuExit) {
        let code = encode_list(il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        let exit = m.run();
        (m, exit)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(10)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(32)));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 42);
        assert_eq!(m.counters.instructions, 3);
    }

    #[test]
    fn loop_with_conditional_branch() {
        // eax = sum of 1..=100 via a dec loop.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(100)));
        let top = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Ebx)));
        il.push_back(create::dec(Opnd::reg(Reg::Ebx)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 5050);
        // The loop branch should be well predicted after warmup.
        assert!(m.counters.cond_mispredicts < 5);
    }

    #[test]
    fn memory_and_stack() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(7)));
        il.push_back(create::push(Opnd::reg(Reg::Eax)));
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::pop(Opnd::reg(Reg::Ebx)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(Image::DATA_BASE, OpSize::S32)),
            Opnd::reg(Reg::Ebx),
        ));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ebx), 7);
        assert_eq!(m.mem.read_u32(Image::DATA_BASE), 7);
    }

    #[test]
    fn call_and_ret_round_trip() {
        // main: call f; hlt.  f: mov eax, 99; ret.
        let mut il = InstrList::new();
        let call_site = create::call(Target::Pc(0));
        let c = il.push_back(call_site);
        il.push_back(create::hlt());
        let f = il.push_back(create::label());
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(99)));
        il.push_back(create::ret());
        il.get_mut(c).set_target(Target::Instr(f));
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 99);
        // RAS should predict the matched ret (cold BTB doesn't matter).
        assert_eq!(m.counters.ind_mispredicts, 0);
    }

    #[test]
    fn indirect_jump_via_register() {
        let mut il = InstrList::new();
        let j = il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::jmp_ind(Opnd::reg(Reg::Eax)));
        il.push_back(create::int3()); // skipped
        let target = il.push_back(create::label());
        il.push_back(create::hlt());
        // Resolve the label's address by encoding once.
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let target_addr = Image::CODE_BASE + enc.offset_of(target).unwrap();
        il.get_mut(j).set_src(0, Opnd::imm32(target_addr as i32));
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.counters.ind_mispredicts, 1); // cold BTB
    }

    #[test]
    fn syscall_exit() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::int(0x80));
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Syscall(0x80));
        // eip advanced past the int, ready to resume.
        assert_eq!(m.cpu.eip, Image::CODE_BASE + 5 + 2);
    }

    #[test]
    fn out_of_region_exit() {
        let mut il = InstrList::new();
        il.push_back(create::jmp(Target::Pc(0xC000_0000)));
        let (_, exit) = {
            let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
            let mut m = Machine::new(CpuKind::Pentium4);
            m.load_image(&Image::from_code(code));
            let e = m.run();
            (m, e)
        };
        assert_eq!(exit, CpuExit::OutOfRegion(0xC000_0000));
    }

    #[test]
    fn divide_error_is_precise_and_resumable() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::cdq());
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(0)));
        il.push_back(create::idiv(Opnd::reg(Reg::Ebx)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        let exit = m.run();
        let CpuExit::Fault { kind, pc, addr } = exit else {
            panic!("expected fault, got {exit:?}");
        };
        assert_eq!(kind, FaultKind::DivideError);
        // eip still points at the faulting idiv; nothing was committed.
        assert_eq!(pc, m.cpu.eip);
        assert_eq!(addr, pc);
        assert_eq!(m.cpu.reg(Reg::Eax), 1);
        assert_eq!(m.counters.instructions, 3);
        // The machine is resumable: skip the 2-byte idiv and finish.
        m.cpu.eip = pc + 2;
        assert_eq!(m.run(), CpuExit::Halt);
    }

    #[test]
    fn guard_region_faults_before_any_state_change() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(7)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(0x2000_0000, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m.set_guard_regions(vec![ExecRegion::new(0x2000_0000, 0x2000_1000)]);
        let exit = m.run();
        assert_eq!(
            exit,
            CpuExit::Fault {
                kind: FaultKind::MemFault,
                pc: m.cpu.eip,
                addr: 0x2000_0000,
            }
        );
        // The guarded store never happened.
        assert_eq!(m.mem.read_u32(0x2000_0000), 0);
        // Without the guard the same program completes.
        m.set_guard_regions(Vec::new());
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.mem.read_u32(0x2000_0000), 7);
    }

    #[test]
    fn injected_fault_fires_once_at_the_trigger_count() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m.inject_fault_at(1, FaultKind::InvalidOpcode);
        let exit = m.run();
        let CpuExit::Fault { kind, pc, .. } = exit else {
            panic!("expected injected fault, got {exit:?}");
        };
        assert_eq!(kind, FaultKind::InvalidOpcode);
        assert_eq!(m.counters.instructions, 1);
        assert_eq!(pc, m.cpu.eip);
        assert_eq!(m.pending_injection(), None);
        // One-shot: resuming runs to completion.
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ebx), 2);
    }

    #[test]
    fn undecodable_bytes_fault_as_invalid_opcode() {
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(vec![0x0F, 0xFF, 0xFF, 0xFF]));
        let exit = m.run();
        assert_eq!(
            exit,
            CpuExit::Fault {
                kind: FaultKind::InvalidOpcode,
                pc: Image::CODE_BASE,
                addr: Image::CODE_BASE,
            }
        );
    }

    #[test]
    fn signed_division_semantics() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(-7)));
        il.push_back(create::cdq());
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2)));
        il.push_back(create::idiv(Opnd::reg(Reg::Ebx)));
        il.push_back(create::hlt());
        let (m, _) = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Eax) as i32, -3);
        assert_eq!(m.cpu.reg(Reg::Edx) as i32, -1);
    }

    #[test]
    fn inc_preserves_carry() {
        let mut il = InstrList::new();
        // Set CF via 0xFFFFFFFF + 1, then inc; CF must survive.
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(-1)));
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::inc(Opnd::reg(Reg::Ebx)));
        il.push_back(create::sbb(Opnd::reg(Reg::Ecx), Opnd::reg(Reg::Ecx))); // ecx = CF ? -1 : 0
        il.push_back(create::hlt());
        let (m, _) = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Ecx), 0xFFFF_FFFF);
    }

    #[test]
    fn flags_save_restore_via_lahf_sahf() {
        let mut il = InstrList::new();
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::reg(Reg::Eax))); // ZF=1
        il.push_back(create::lahf());
        il.push_back(create::add(Opnd::reg(Reg::Ebx), Opnd::imm32(1))); // ZF=0
        il.push_back(create::sahf()); // restore ZF=1
        il.push_back(create::setcc(Cc::Z, Opnd::reg(Reg::Cl)));
        il.push_back(create::hlt());
        let (m, _) = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Cl), 1);
    }

    #[test]
    fn self_modifying_code_requires_invalidation() {
        // Write a mov imm; hlt, run; patch the immediate; without
        // invalidation the stale decode executes, with it the new value.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 1);
        // Patch immediate to 2.
        m.mem.write_u32(Image::CODE_BASE + 1, 2);
        m.invalidate_code();
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 2);
    }

    #[test]
    fn interpreted_self_modifying_store_needs_no_manual_invalidation() {
        // A loop patches its own `add` immediate from 1000 to 2000
        // mid-run (imm32 values, so the 4-byte immediate is encoded). The
        // interpreter must invalidate its decode cache on the store by
        // itself: pass 1 adds 1000, pass 2 must add the patched 2000.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::imm32(2)));
        let top = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(1000)));
        let after_add = il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(2000)));
        let patch = il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(0, OpSize::S32)), // fixed up below
            Opnd::reg(Reg::Ebx),
        ));
        il.push_back(create::dec(Opnd::reg(Reg::Ecx)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::hlt());
        // The add's imm32 occupies the 4 bytes before the next instruction.
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let imm_addr = Image::CODE_BASE + enc.offset_of(after_add).unwrap() - 4;
        il.get_mut(patch)
            .set_dst(0, Opnd::Mem(MemRef::absolute(imm_addr, OpSize::S32)));
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        m.set_verify_decodes(true);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 3000); // 1000 + patched 2000
        assert_eq!(m.stale_decode_hits(), 0); // never served a stale decode
    }

    #[test]
    fn watched_store_exits_after_commit_with_eip_advanced() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0x90)));
        let store = il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(Image::CODE_BASE + 0x40, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(7)));
        il.push_back(create::hlt());
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let store_pc = Image::CODE_BASE + enc.offset_of(store).unwrap();
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(enc.bytes));
        m.set_watch_regions(vec![ExecRegion::new(
            Image::CODE_BASE,
            Image::CODE_BASE + 0x100,
        )]);
        let exit = m.run();
        assert_eq!(
            exit,
            CpuExit::CodeWrite {
                pc: store_pc,
                addr: Image::CODE_BASE + 0x40,
                len: 4,
            }
        );
        // The store committed and eip is past the writer: resumable.
        assert_eq!(m.mem.read_u32(Image::CODE_BASE + 0x40), 0x90);
        assert!(m.cpu.eip > store_pc);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Ebx), 7);
    }

    #[test]
    fn range_invalidation_spares_unrelated_decodes() {
        // Writes far from any decoded pc must not clear cached entries;
        // writes overlapping one must. Probed via the public behaviour:
        // a stale decode would execute the old immediate.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        assert_eq!(m.run(), CpuExit::Halt);
        // Patch the immediate through memory, invalidating just that range.
        m.mem.write_u32(Image::CODE_BASE + 1, 2);
        m.invalidate_code_range(Image::CODE_BASE + 1, 4);
        m.cpu.eip = Image::CODE_BASE;
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 2);
    }

    #[test]
    fn decode_cache_chunks_come_into_existence_on_first_store() {
        let chunks = |m: &Machine| m.dcache.chunks.iter().filter(|c| c.is_some()).count();
        let mut m = Machine::new(CpuKind::Pentium4);
        assert_eq!(chunks(&m), 0);
        // Invalidating never-decoded code allocates nothing, not even the
        // code-page map's directory.
        m.invalidate_code_range(Image::CODE_BASE, 4096);
        assert_eq!(chunks(&m), 0);
        assert!(m.dcache.pages.dir.is_empty());

        // A loop whose body (one-byte `inc`s) spans several chunks, each
        // covering DCACHE_CHUNK consecutive pcs.
        let body = 2 * DCACHE_CHUNK as u32;
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(50)));
        let top = il.push_back(create::label());
        for _ in 0..body {
            il.push_back(create::inc(Opnd::reg(Reg::Eax)));
        }
        il.push_back(create::dec(Opnd::reg(Reg::Ebx)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::hlt());
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code.clone()));
        m.set_verify_decodes(true);
        assert_eq!(m.run(), CpuExit::Halt);
        assert_eq!(m.cpu.reg(Reg::Eax), 50 * body);
        assert_eq!(m.stale_decode_hits(), 0);
        // Only the chunks the code maps to exist: the code spans at most
        // `len / DCACHE_CHUNK + 1` chunks of consecutive slots, plus one if
        // its slots wrap around the end of the cache.
        let used = chunks(&m);
        assert!(used >= 2, "{used}");
        assert!(used <= code.len() / DCACHE_CHUNK + 2, "{used}");
        assert!(used < DCACHE_SIZE / DCACHE_CHUNK);
    }

    /// Encode `il` at `pc` and write it into `m`'s memory.
    fn place(m: &mut Machine, pc: u32, il: &InstrList) -> u32 {
        let code = encode_list(il, pc).unwrap().bytes;
        m.mem.write_bytes(pc, &code);
        code.len() as u32
    }

    fn mov_eax(v: u32) -> InstrList {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(v as i32)));
        il
    }

    #[test]
    fn stores_wrapping_past_the_top_of_memory_invalidate_and_are_watched() {
        // `mov eax, 1` at 0xFFFF_FFFD: its immediate wraps to 0x0..0x1.
        let mut m = Machine::new(CpuKind::Pentium4);
        m.set_verify_decodes(true);
        let mov = 0xFFFF_FFFD;
        assert_eq!(place(&mut m, mov, &mov_eax(1)), 5);
        m.cpu.eip = mov;
        assert_eq!(m.step(), None);
        assert_eq!(m.cpu.reg(Reg::Eax), 1);
        // `push ebx` with esp = 4 writes 0x0..0x3, over the immediate's
        // top two bytes.
        let mut push = InstrList::new();
        push.push_back(create::push(Opnd::reg(Reg::Ebx)));
        place(&mut m, 0x1000, &push);
        m.cpu.set_reg(Reg::Ebx, 0x0303);
        m.cpu.set_reg(Reg::Esp, 4);
        m.cpu.eip = 0x1000;
        assert_eq!(m.step(), None);
        m.cpu.eip = mov;
        assert_eq!(m.step(), None);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x0303_0001);
        assert_eq!(m.stale_decode_hits(), 0);

        // A store wrapping onto a watched region at address 0 is reported.
        m.set_watch_regions(vec![ExecRegion::new(0, 0x10)]);
        m.cpu.set_reg(Reg::Esp, 2);
        m.cpu.eip = 0x1000;
        assert_eq!(
            m.step(),
            Some(CpuExit::CodeWrite {
                pc: 0x1000,
                addr: 0xFFFF_FFFE,
                len: 4,
            })
        );
    }

    #[test]
    fn data_only_stores_skip_every_invalidation_probe() {
        // Store ebx to a data word and push/pop it 200 times.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(200)));
        let top = il.push_back(create::label());
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(Image::DATA_BASE, OpSize::S32)),
            Opnd::reg(Reg::Ebx),
        ));
        il.push_back(create::push(Opnd::reg(Reg::Ebx)));
        il.push_back(create::pop(Opnd::reg(Reg::Ecx)));
        il.push_back(create::dec(Opnd::reg(Reg::Ebx)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::hlt());
        let (m, exit) = run_program(&il);
        assert_eq!(exit, CpuExit::Halt);
        assert_eq!(m.counters.stores, 400);
        let stats = m.decode_stats();
        assert_eq!(stats.stores_skipped, 400);
        assert_eq!(stats.range_invalidations, 0);
        // Seven distinct pcs decode once each; every other fetch hits.
        assert_eq!(stats.misses, 7);
        assert_eq!(stats.hits + stats.misses, m.counters.instructions);
    }

    #[test]
    fn store_into_the_second_page_of_a_straddling_decode_invalidates_it() {
        // `mov eax, 1` two bytes before a page boundary: opcode and one
        // immediate byte on the first page, three immediate bytes on the
        // second.
        let mut m = Machine::new(CpuKind::Pentium4);
        m.set_verify_decodes(true);
        let page = 0x0040_1000;
        let mov = page - 2;
        place(&mut m, mov, &mov_eax(1));
        let mut store = InstrList::new();
        store.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(page + 1, OpSize::S8)),
            Opnd::reg(Reg::Bl),
        ));
        place(&mut m, 0x0800_0000, &store);
        m.cpu.eip = mov;
        assert_eq!(m.step(), None);
        m.cpu.set_reg(Reg::Ebx, 0x7f);
        m.cpu.eip = 0x0800_0000;
        assert_eq!(m.step(), None);
        assert_eq!(m.decode_stats().range_invalidations, 1);
        m.cpu.eip = mov;
        assert_eq!(m.step(), None);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x007f_0001);
        assert_eq!(m.stale_decode_hits(), 0);
        assert_eq!(m.decode_stats().misses, 3);
    }

    #[test]
    fn step_and_run_steps_of_one_agree() {
        // Calls, stores, loads and a self-patching store, with both
        // machines checked after every instruction.
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Ecx), Opnd::imm32(30)));
        let top = il.push_back(create::label());
        let call = il.push_back(create::call(Target::Pc(0)));
        il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(Image::DATA_BASE, OpSize::S32)),
            Opnd::reg(Reg::Eax),
        ));
        let patch = il.push_back(create::mov(
            Opnd::Mem(MemRef::absolute(0, OpSize::S32)), // fixed up below
            Opnd::reg(Reg::Ecx),
        ));
        il.push_back(create::dec(Opnd::reg(Reg::Ecx)));
        let mut j = create::jcc(Cc::Nz, Target::Pc(0));
        j.set_target(Target::Instr(top));
        il.push_back(j);
        il.push_back(create::hlt());
        let f = il.push_back(create::label());
        il.push_back(create::add(Opnd::reg(Reg::Eax), Opnd::imm32(1000)));
        let ret = il.push_back(create::ret());
        il.get_mut(call).set_target(Target::Instr(f));
        // The add's imm32 occupies the 4 bytes before the `ret`.
        let enc = encode_list(&il, Image::CODE_BASE).unwrap();
        let imm = Image::CODE_BASE + enc.offset_of(ret).unwrap() - 4;
        il.get_mut(patch)
            .set_dst(0, Opnd::Mem(MemRef::absolute(imm, OpSize::S32)));
        let code = encode_list(&il, Image::CODE_BASE).unwrap().bytes;
        let mut a = Machine::new(CpuKind::Pentium4);
        let mut b = Machine::new(CpuKind::Pentium4);
        for m in [&mut a, &mut b] {
            m.load_image(&Image::from_code(code.clone()));
            m.set_verify_decodes(true);
        }
        loop {
            let ea = a.step();
            let eb = match b.run_steps(1) {
                CpuExit::FuelExhausted => None,
                e => Some(e),
            };
            assert_eq!(ea, eb);
            assert_eq!(a.cpu.eip, b.cpu.eip);
            assert_eq!(a.counters, b.counters);
            assert_eq!(a.decode_stats(), b.decode_stats());
            if ea.is_some() {
                break;
            }
        }
        let image = Image::from_code(code);
        assert_eq!(a.app_state_digest(&image), b.app_state_digest(&image));
        assert_eq!(a.mem.read_u32(imm), b.mem.read_u32(imm));
        assert_eq!(a.stale_decode_hits() + b.stale_decode_hits(), 0);
        assert!(a.decode_stats().range_invalidations >= 30);
    }

    #[test]
    fn random_stores_near_code_and_page_boundaries_leave_no_stale_decode() {
        // Code straddles two page boundaries and the top of memory; random
        // 1-, 2- and 4-byte stores land on and around it, and every byte
        // of it is executed as an instruction start in between.
        let areas = [0x0040_0FF0u32, 0x0040_1FF8, 0xFFFF_FFF0];
        let mut m = Machine::new(CpuKind::Pentium4);
        m.set_verify_decodes(true);
        for &base in &areas {
            let mut il = InstrList::new();
            for k in 0..8 {
                il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(k)));
            }
            place(&mut m, base, &il);
        }
        let writer = 0x0800_0000;
        let mut stores = InstrList::new();
        stores.push_back(create::mov(
            Opnd::Mem(MemRef::base_disp(Reg::Ebx, 0, OpSize::S8)),
            Opnd::reg(Reg::Cl),
        ));
        stores.push_back(create::mov(
            Opnd::Mem(MemRef::base_disp(Reg::Ebx, 0, OpSize::S16)),
            Opnd::reg(Reg::Cx),
        ));
        stores.push_back(create::mov(
            Opnd::Mem(MemRef::base_disp(Reg::Ebx, 0, OpSize::S32)),
            Opnd::reg(Reg::Ecx),
        ));
        let enc = encode_list(&stores, writer).unwrap();
        let starts: Vec<u32> = stores
            .ids()
            .map(|id| writer + enc.offset_of(id).unwrap())
            .collect();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..4000 {
            let area = areas[(next() % 3) as usize];
            // Fetch (and execute) a few instruction starts in the area.
            for _ in 0..4 {
                m.cpu.eip = area.wrapping_add((next() % 40) as u32);
                m.cpu.set_reg(Reg::Esp, 0x0700_0000);
                let _ = m.step();
            }
            // Re-place the writer in case the step wrote over it, then
            // store a random value at -16..56 bytes from the area start.
            m.mem.write_bytes(writer, &enc.bytes);
            m.invalidate_code_range(writer, enc.bytes.len() as u32);
            m.cpu.set_reg(
                Reg::Ebx,
                area.wrapping_add((next() % 72) as u32).wrapping_sub(16),
            );
            m.cpu.set_reg(Reg::Ecx, next() as u32);
            m.cpu.eip = starts[(next() % 3) as usize];
            assert_eq!(m.step(), None);
        }
        assert_eq!(m.stale_decode_hits(), 0);
        let stats = m.decode_stats();
        assert!(stats.range_invalidations > 1000, "{stats:?}");
        assert!(stats.hits > 1000, "{stats:?}");
    }

    #[test]
    fn charged_overhead_is_tracked_separately() {
        let mut m = Machine::new(CpuKind::Pentium4);
        m.charge(100);
        assert_eq!(m.counters.cycles, 100);
        assert_eq!(m.counters.charged_overhead, 100);
    }
}

#[cfg(test)]
mod extended_isa_exec_tests {
    use super::*;
    use rio_ia32::encode::encode_list;
    use rio_ia32::{create, Cc, InstrList};

    fn run_program(il: &InstrList) -> Machine {
        let code = encode_list(il, Image::CODE_BASE).unwrap().bytes;
        let mut m = Machine::new(CpuKind::Pentium4);
        m.load_image(&Image::from_code(code));
        assert_eq!(m.run(), crate::cpu::CpuExit::Halt);
        m
    }

    #[test]
    fn cmov_moves_only_when_condition_holds() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(99)));
        il.push_back(create::cmp(Opnd::reg(Reg::Eax), Opnd::imm32(1))); // ZF=1
        il.push_back(create::cmov(Cc::Z, Reg::Ecx, Opnd::reg(Reg::Ebx))); // taken
        il.push_back(create::cmov(Cc::Nz, Reg::Edx, Opnd::reg(Reg::Ebx))); // not taken
        il.push_back(create::hlt());
        let m = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Ecx), 99);
        assert_eq!(m.cpu.reg(Reg::Edx), 0);
    }

    #[test]
    fn rotates() {
        let mut il = InstrList::new();
        il.push_back(create::mov(
            Opnd::reg(Reg::Eax),
            Opnd::imm32(0x8000_0001u32 as i32),
        ));
        il.push_back(create::rol(Opnd::reg(Reg::Eax), Opnd::imm8(1)));
        il.push_back(create::mov(Opnd::reg(Reg::Ebx), Opnd::imm32(0x1)));
        il.push_back(create::ror(Opnd::reg(Reg::Ebx), Opnd::imm8(4)));
        il.push_back(create::hlt());
        let m = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x3);
        assert_eq!(m.cpu.reg(Reg::Ebx), 0x1000_0000);
    }

    #[test]
    fn bit_test_sets_carry() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0b1000)));
        il.push_back(create::bt(Opnd::reg(Reg::Eax), Opnd::imm8(3)));
        il.push_back(create::sbb(Opnd::reg(Reg::Ecx), Opnd::reg(Reg::Ecx))); // -CF
        il.push_back(create::bt(Opnd::reg(Reg::Eax), Opnd::imm8(2)));
        il.push_back(create::sbb(Opnd::reg(Reg::Edx), Opnd::reg(Reg::Edx)));
        il.push_back(create::hlt());
        let m = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Ecx), 0xFFFF_FFFF); // bit 3 was set
        assert_eq!(m.cpu.reg(Reg::Edx), 0); // bit 2 clear
    }

    #[test]
    fn bswap_reverses_bytes() {
        let mut il = InstrList::new();
        il.push_back(create::mov(Opnd::reg(Reg::Eax), Opnd::imm32(0x1234_5678)));
        il.push_back(create::bswap(Reg::Eax));
        il.push_back(create::hlt());
        let m = run_program(&il);
        assert_eq!(m.cpu.reg(Reg::Eax), 0x7856_3412);
    }
}
