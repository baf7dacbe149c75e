//! Experiment configuration shared by every figure and table.

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Shrink problem sizes (for CI / `cargo test`); full sizes match the
    /// paper's Tables II-V.
    pub quick: bool,
    /// Also run native wall-clock measurements where the experiment
    /// supports them.
    pub native: bool,
    /// Seed for workload generation.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            quick: true,
            native: false,
            seed: 0x0C1_2013,
        }
    }
}

impl Config {
    pub fn full() -> Self {
        Config {
            quick: false,
            ..Default::default()
        }
    }

    /// Pick `full` unless quick mode, then `quick`.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_respects_quick() {
        let quick = Config::default();
        assert_eq!(quick.size(1000, 10), 10);
        assert_eq!(Config::full().size(1000, 10), 1000);
    }
}
