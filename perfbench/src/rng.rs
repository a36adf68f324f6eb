//! The benchmark's own seeded generator (SplitMix64): every input the
//! benchmark feeds the program is a pure function of `--seed`.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`, further split by `stream` so independent
    /// inputs (client 0, client 1, the edit log, …) never share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A uniform value in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
