//! Static per-workitem kernel characteristics consumed by the models.

/// What one workitem of a kernel does, as seen by the timing models.
///
/// Profiles are written per *workitem*; coalescing `k` workitems into one
/// (the paper's Figure 1/2 experiment) multiplies the work fields by `k`
/// via [`KernelProfile::coalesced`] while the launch shrinks by `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Single-precision FP operations per workitem.
    pub flops: f64,
    /// Global-memory traffic per workitem, bytes.
    pub mem_bytes: f64,
    /// Length of the longest dependent-operation chain per workitem, ops.
    /// For straight-line dependent code this equals `flops`.
    pub chain_ops: f64,
    /// Number of independent instruction streams (the ILP knob of
    /// Section III-C). 1 for typical SIMT-style kernels.
    pub ilp: f64,
    /// Whether the OpenCL implicit vectorizer can pack adjacent workitems
    /// into SIMD lanes (uniform control flow, no cross-item dependences).
    pub vectorizable: bool,
    /// Whether *adjacent workitems* touch adjacent memory — the GPU
    /// memory-coalescing property (one transaction per warp vs one per
    /// lane).
    pub coalesced_access: bool,
    /// Whether *one workitem's own walk* is contiguous — the CPU spatial-
    /// locality property (a blocked per-item loop is contiguous for the CPU
    /// even when it breaks warp coalescing on the GPU).
    pub item_contiguous: bool,
    /// Local (shared) memory per workgroup, bytes — constrains GPU
    /// occupancy and models CPU cache blocking.
    pub local_mem_per_group: f64,
    /// Loads on the critical path per workitem (a load whose value the next
    /// instruction consumes). On an in-order GPU thread each of these
    /// exposes the full memory latency unless other warps hide it.
    pub dependent_loads: f64,
    /// Workgroup-local (`__local`) traffic per workitem, in *effective*
    /// bytes (cache lines touched × line size for strided walks). On a GPU
    /// this is banked scratchpad and free to first order; on a CPU local
    /// memory is ordinary cached memory, so the CPU model charges it at L1
    /// bandwidth — the mechanism behind tiled MatrixMul preferring smaller
    /// tiles on CPUs than on GPUs (paper Section III-B.2).
    pub local_traffic_bytes: f64,
}

impl KernelProfile {
    /// A compute-only profile with a single dependent chain.
    pub fn compute(flops: f64) -> Self {
        KernelProfile {
            flops,
            mem_bytes: 0.0,
            chain_ops: flops,
            ilp: 1.0,
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 0.0,
            dependent_loads: 0.0,
            local_traffic_bytes: 0.0,
        }
    }

    /// A streaming profile: `flops` FP ops and `mem_bytes` of traffic, with
    /// one load on the critical path.
    pub fn streaming(flops: f64, mem_bytes: f64) -> Self {
        KernelProfile {
            flops,
            mem_bytes,
            chain_ops: flops,
            ilp: 1.0,
            vectorizable: true,
            coalesced_access: true,
            item_contiguous: true,
            local_mem_per_group: 0.0,
            dependent_loads: 1.0,
            local_traffic_bytes: 0.0,
        }
    }

    /// Set the ILP (independent streams); the chain shortens accordingly.
    pub fn with_ilp(mut self, ilp: f64) -> Self {
        assert!(ilp >= 1.0, "ILP must be at least 1");
        self.ilp = ilp;
        self.chain_ops = self.flops / ilp;
        self
    }

    /// Mark the access pattern fully scattered: non-contiguous both across
    /// workitems (GPU) and within one workitem's walk (CPU).
    pub fn uncoalesced(mut self) -> Self {
        self.coalesced_access = false;
        self.item_contiguous = false;
        self
    }

    /// Mark the kernel unvectorizable (divergent control flow).
    pub fn not_vectorizable(mut self) -> Self {
        self.vectorizable = false;
        self
    }

    /// Set local memory used per workgroup.
    pub fn with_local_mem(mut self, bytes: f64) -> Self {
        self.local_mem_per_group = bytes;
        self
    }

    /// The profile of a workitem that executes `k` original workitems in an
    /// internal loop (workitem coalescing). Work scales by `k`; the chain
    /// also scales by `k` because loop iterations execute back-to-back in
    /// one thread context.
    pub fn coalesced(&self, k: usize) -> KernelProfile {
        let kf = k as f64;
        KernelProfile {
            flops: self.flops * kf,
            mem_bytes: self.mem_bytes * kf,
            chain_ops: self.chain_ops * kf,
            ilp: self.ilp,
            vectorizable: self.vectorizable,
            // Blocked coalescing gives each workitem a contiguous k-element
            // window — ideal for a CPU thread's cache, but adjacent *lanes*
            // of a GPU warp now stride by the window size, destroying warp
            // coalescing (k > 1).
            coalesced_access: self.coalesced_access && k == 1,
            item_contiguous: self.item_contiguous,
            local_mem_per_group: self.local_mem_per_group,
            dependent_loads: self.dependent_loads * kf,
            local_traffic_bytes: self.local_traffic_bytes * kf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_profile_has_full_chain() {
        let p = KernelProfile::compute(100.0);
        assert_eq!(p.chain_ops, 100.0);
        assert_eq!(p.mem_bytes, 0.0);
    }

    #[test]
    fn ilp_splits_the_chain() {
        let p = KernelProfile::compute(100.0).with_ilp(4.0);
        assert_eq!(p.chain_ops, 25.0);
        assert_eq!(p.ilp, 4.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_ilp_rejected() {
        let _ = KernelProfile::compute(10.0).with_ilp(0.5);
    }

    #[test]
    fn coalescing_scales_work_and_chain() {
        let p = KernelProfile::streaming(2.0, 12.0).coalesced(10);
        assert_eq!(p.flops, 20.0);
        assert_eq!(p.mem_bytes, 120.0);
        assert_eq!(p.chain_ops, 20.0);
    }

    #[test]
    fn builders_set_flags() {
        let p = KernelProfile::compute(1.0)
            .uncoalesced()
            .not_vectorizable()
            .with_local_mem(2048.0);
        assert!(!p.coalesced_access);
        assert!(!p.vectorizable);
        assert_eq!(p.local_mem_per_group, 2048.0);
    }
}
