//! Sparse flat 32-bit memory.
//!
//! Pages are allocated lazily on first write; reads of untouched memory
//! return zero. This keeps multi-gigabyte address-space layouts (application
//! image low, stack in the middle, code cache high) cheap to model.
//!
//! Pages are found through a two-level page table, as on the modelled
//! hardware: the top 10 address bits index a directory of lazily allocated
//! tables, the next 10 bits a table of lazily allocated 4 KiB pages. A
//! load, store or fetch is two array indexings, with no hashing.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;
/// Address bits resolved by each level of the page table.
const LEVEL_BITS: u32 = 10;
const SLOTS: usize = 1 << LEVEL_BITS;
const TABLE_SHIFT: u32 = PAGE_SHIFT + LEVEL_BITS;

type Page = Box<[u8; PAGE_SIZE]>;
/// One second-level table: the pages of a 4 MiB slice of the address space.
type Table = Box<[Option<Page>; SLOTS]>;

fn empty_slots<T: Clone>() -> Box<[Option<T>; SLOTS]> {
    vec![None; SLOTS]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("vec has SLOTS entries"))
}

fn dir_index(addr: u32) -> usize {
    (addr >> TABLE_SHIFT) as usize
}

fn table_index(addr: u32) -> usize {
    ((addr >> PAGE_SHIFT) as usize) & (SLOTS - 1)
}

/// A sparse, lazily allocated 4 GiB byte-addressable memory.
///
/// # Examples
///
/// ```
/// use rio_sim::Memory;
/// let mut m = Memory::new();
/// m.write_u32(0x0800_0000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x0800_0000), 0xdead_beef);
/// assert_eq!(m.read_u32(0x0800_0004), 0); // untouched memory reads zero
/// ```
pub struct Memory {
    dir: Box<[Option<Table>; SLOTS]>,
    resident: usize,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            dir: empty_slots(),
            resident: 0,
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Memory({} pages)", self.resident)
    }
}

impl Memory {
    /// Create an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident pages (for memory accounting).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.dir[dir_index(addr)].as_ref()?[table_index(addr)].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let table = self.dir[dir_index(addr)].get_or_insert_with(empty_slots);
        let slot = &mut table[table_index(addr)];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = v;
    }

    /// Read a little-endian 16-bit value.
    pub fn read_u16(&self, addr: u32) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Write a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Read a little-endian 32-bit value.
    pub fn read_u32(&self, addr: u32) -> u32 {
        // Fast path: within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            return self.page(addr).map_or(0, |p| {
                u32::from_le_bytes([p[off], p[off + 1], p[off + 2], p[off + 3]])
            });
        }
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        let off = (addr & PAGE_MASK) as usize;
        if off + 4 <= PAGE_SIZE {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&v.to_le_bytes());
        } else {
            self.write_bytes(addr, &v.to_le_bytes());
        }
    }

    /// Copy a byte slice into memory at `addr`, one page-sized chunk at a
    /// time (wrapping at the top of the address space).
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let mut a = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            self.page_mut(a)[off..off + n].copy_from_slice(&rest[..n]);
            a = a.wrapping_add(n as u32);
            rest = &rest[n..];
        }
    }

    /// Copy `buf.len()` bytes out of memory starting at `addr`, one
    /// page-sized chunk at a time (wrapping at the top of the address
    /// space). Untouched pages read as zero.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) {
        let mut a = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (a & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(n);
            match self.page(a) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            a = a.wrapping_add(n as u32);
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xFFFF_FFFC), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(0x1000, 0xAB);
        m.write_u16(0x2000, 0xBEEF);
        m.write_u32(0x3000, 0x1234_5678);
        assert_eq!(m.read_u8(0x1000), 0xAB);
        assert_eq!(m.read_u16(0x2000), 0xBEEF);
        assert_eq!(m.read_u32(0x3000), 0x1234_5678);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.write_u32(0x1FFE, 0xAABB_CCDD);
        assert_eq!(m.read_u32(0x1FFE), 0xAABB_CCDD);
        assert_eq!(m.read_u8(0x1FFE), 0xDD);
        assert_eq!(m.read_u8(0x2001), 0xAA);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_write_spanning_pages() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x0FFF_F0F0, &data);
        let mut out = vec![0u8; 256];
        m.read_bytes(0x0FFF_F0F0, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn access_across_a_table_boundary() {
        // 0x0040_0000 starts the second 4 MiB table of the directory.
        let mut m = Memory::new();
        m.write_u32(0x003F_FFFE, 0x1122_3344);
        assert_eq!(m.read_u32(0x003F_FFFE), 0x1122_3344);
        assert_eq!(m.read_u16(0x003F_FFFF), 0x2233);
        assert_eq!(m.read_u8(0x003F_FFFF), 0x33);
        assert_eq!(m.read_u8(0x0040_0000), 0x22);
        assert_eq!(m.resident_pages(), 2);
        m.write_u16(0x003F_FFFF, 0xA0B0);
        assert_eq!(m.read_u32(0x003F_FFFE), 0x11A0_B044);
    }

    #[test]
    fn word_access_wraps_at_the_top_of_the_address_space() {
        let mut m = Memory::new();
        m.write_u32(0xFFFF_FFFE, 0xAABB_CCDD);
        assert_eq!(m.read_u32(0xFFFF_FFFE), 0xAABB_CCDD);
        assert_eq!(m.read_u8(0xFFFF_FFFF), 0xCC);
        assert_eq!(m.read_u8(0x0000_0000), 0xBB);
        assert_eq!(m.read_u16(0x0000_0000), 0xAABB);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bulk_copies_span_pages_and_tables() {
        let mut m = Memory::new();
        // Three pages' worth starting mid-page just below a table
        // boundary: touches the last two pages of one table and the first
        // two of the next.
        let start = 0x007F_E800;
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i * 7 + 1) as u8).collect();
        m.write_bytes(start, &data);
        assert_eq!(m.resident_pages(), 4);
        let mut out = vec![0u8; data.len()];
        m.read_bytes(start, &mut out);
        assert_eq!(out, data);
        for (i, b) in data.iter().enumerate().step_by(509) {
            assert_eq!(m.read_u8(start + i as u32), *b);
        }
        // A read that runs off the written bytes into untouched pages
        // zero-fills without allocating.
        let mut tail = vec![0xFFu8; 2 * PAGE_SIZE];
        m.read_bytes(start + data.len() as u32 - 16, &mut tail);
        assert_eq!(tail[..16], data[data.len() - 16..]);
        assert!(tail[16..].iter().all(|b| *b == 0));
        assert_eq!(m.resident_pages(), 4);
        // A bulk copy wraps at the top of the address space.
        m.write_bytes(0xFFFF_FFFC, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut wrapped = [0u8; 8];
        m.read_bytes(0xFFFF_FFFC, &mut wrapped);
        assert_eq!(wrapped, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_u32(0), 0x0807_0605);
    }

    #[test]
    fn resident_pages_count_each_page_once() {
        let mut m = Memory::new();
        m.write_u8(0x1000, 1);
        m.write_u32(0x1004, 2);
        m.write_bytes(0x1100, &[3; 64]);
        assert_eq!(m.resident_pages(), 1);
        // Reads never allocate, wherever they land.
        let mut buf = [0u8; 32];
        m.read_bytes(0x9000_0000, &mut buf);
        assert_eq!(m.read_u32(0x5000_0000), 0);
        assert_eq!(m.resident_pages(), 1);
        // A second page in the same table, then one in a distant table.
        m.write_u16(0x2FFF, 0xFFFF);
        assert_eq!(m.resident_pages(), 3);
        m.write_u8(0xC000_0000, 9);
        assert_eq!(m.resident_pages(), 4);
        assert_eq!(format!("{m:?}"), "Memory(4 pages)");
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
    }
}
