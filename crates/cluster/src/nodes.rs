//! The node pool: the fixed fleet of VMs pods are scheduled onto.
//!
//! The thesis ran on GKE's free tier — eight `n1-standard-1` VMs (1 vCPU,
//! 3.75 GB each) with cluster autoscaling off — and that quota is *why*
//! its experiments cap at three joiners per side: the pods for two joiner
//! deployments, the router deployment and the broker must all fit.
//! This module models that constraint: first-fit scheduling of pod
//! resource requests onto a fixed pool, so experiments can derive an
//! honest `max_replicas` from infrastructure instead of hard-coding it.

use bistream_types::error::{Error, Result};

/// Resources offered by one node (or requested by one pod).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// CPU in millicores (1000 = one vCPU).
    pub cpu_millis: u64,
    /// Memory in bytes.
    pub memory_bytes: u64,
}

impl Resources {
    /// `n1-standard-1`: 1 vCPU, 3.75 GB.
    pub const N1_STANDARD_1: Resources =
        Resources { cpu_millis: 1_000, memory_bytes: 3_750 * 1024 * 1024 };

    fn fits(self, within: Resources) -> bool {
        self.cpu_millis <= within.cpu_millis && self.memory_bytes <= within.memory_bytes
    }

    fn minus(self, used: Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.saturating_sub(used.cpu_millis),
            memory_bytes: self.memory_bytes.saturating_sub(used.memory_bytes),
        }
    }

    fn plus(self, other: Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis + other.cpu_millis,
            memory_bytes: self.memory_bytes + other.memory_bytes,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    capacity: Resources,
    allocated: Resources,
    pods: Vec<String>,
}

impl Node {
    fn free(&self) -> Resources {
        self.capacity.minus(self.allocated)
    }
}

/// A fixed pool of nodes with first-fit pod placement.
#[derive(Debug, Clone)]
pub struct NodePool {
    nodes: Vec<Node>,
}

impl NodePool {
    /// A homogeneous pool of `n` nodes.
    pub fn homogeneous(n: usize, capacity: Resources) -> NodePool {
        NodePool {
            nodes: (0..n)
                .map(|_| Node {
                    capacity,
                    allocated: Resources { cpu_millis: 0, memory_bytes: 0 },
                    pods: Vec::new(),
                })
                .collect(),
        }
    }

    /// The thesis's cluster: 8 × `n1-standard-1`.
    pub fn thesis_cluster() -> NodePool {
        NodePool::homogeneous(8, Resources::N1_STANDARD_1)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the pool has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Schedule a named pod with `request` onto the first node with room;
    /// returns the node index.
    ///
    /// # Errors
    /// [`Error::Scaling`] when no node can host the request (the
    /// "unschedulable pod" state Kubernetes reports).
    pub fn schedule(&mut self, pod: impl Into<String>, request: Resources) -> Result<usize> {
        let pod = pod.into();
        if self.nodes.iter().any(|n| n.pods.contains(&pod)) {
            return Err(Error::Scaling(format!("pod `{pod}` is already scheduled")));
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if request.fits(node.free()) {
                node.allocated = node.allocated.plus(request);
                node.pods.push(pod);
                return Ok(i);
            }
        }
        Err(Error::Scaling(format!(
            "pod `{pod}` is unschedulable: no node has {}m CPU / {} B free",
            request.cpu_millis, request.memory_bytes
        )))
    }

    /// Remove a pod by name, freeing its resources. Returns true if it
    /// was scheduled.
    pub fn evict(&mut self, pod: &str, request: Resources) -> bool {
        for node in &mut self.nodes {
            if let Some(i) = node.pods.iter().position(|p| p == pod) {
                node.pods.swap_remove(i);
                node.allocated = node.allocated.minus(request);
                return true;
            }
        }
        false
    }

    /// How many *additional* pods of `request` the pool could accept —
    /// the infrastructure-derived cap an autoscaler's `max_replicas`
    /// should respect.
    pub fn max_schedulable(&self, request: Resources) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                let free = n.free();
                let by_cpu = free
                    .cpu_millis
                    .checked_div(request.cpu_millis)
                    .map(|n| n as usize)
                    .unwrap_or(usize::MAX);
                let by_mem = free
                    .memory_bytes
                    .checked_div(request.memory_bytes)
                    .map(|n| n as usize)
                    .unwrap_or(usize::MAX);
                by_cpu.min(by_mem)
            })
            .sum()
    }

    /// Pods currently on each node (placement view).
    pub fn pods_per_node(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.pods.len()).collect()
    }

    /// Pool-wide CPU allocation fraction.
    pub fn cpu_allocation(&self) -> f64 {
        let cap: u64 = self.nodes.iter().map(|n| n.capacity.cpu_millis).sum();
        let used: u64 = self.nodes.iter().map(|n| n.allocated.cpu_millis).sum();
        if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const POD: Resources = Resources { cpu_millis: 900, memory_bytes: 512 * 1024 * 1024 };

    #[test]
    fn first_fit_packs_in_order() {
        let mut pool = NodePool::homogeneous(3, Resources::N1_STANDARD_1);
        assert_eq!(pool.schedule("a", POD).unwrap(), 0);
        // 100m left on node 0: next pod goes to node 1.
        assert_eq!(pool.schedule("b", POD).unwrap(), 1);
        assert_eq!(pool.pods_per_node(), vec![1, 1, 0]);
    }

    #[test]
    fn unschedulable_when_full() {
        let mut pool = NodePool::homogeneous(1, Resources::N1_STANDARD_1);
        pool.schedule("a", POD).unwrap();
        let err = pool.schedule("b", POD).unwrap_err();
        assert!(err.to_string().contains("unschedulable"));
        // Eviction frees the slot.
        assert!(pool.evict("a", POD));
        assert!(!pool.evict("a", POD), "already gone");
        assert!(pool.schedule("b", POD).is_ok());
    }

    #[test]
    fn duplicate_pod_names_rejected() {
        let mut pool = NodePool::homogeneous(2, Resources::N1_STANDARD_1);
        pool.schedule("a", POD).unwrap();
        assert!(pool.schedule("a", POD).is_err());
    }

    #[test]
    fn thesis_quota_explains_the_pod_cap() {
        // The thesis ran 1 broker + 2 routers and scaled joiners 1–3 per
        // side on 8 single-vCPU nodes. With ~900m requests each node
        // hosts one pod, so after the 3 infrastructure pods only 5 joiner
        // slots remain — the free-tier quota the thesis names as the
        // reason its experiments were "significantly limited": both sides
        // cannot reach their 3-pod maximum simultaneously.
        let mut pool = NodePool::thesis_cluster();
        pool.schedule("rabbitmq", POD).unwrap();
        pool.schedule("router-0", POD).unwrap();
        pool.schedule("router-1", POD).unwrap();
        assert_eq!(pool.max_schedulable(POD), 5);
        for name in ["r-0", "r-1", "r-2", "s-0", "s-1"] {
            pool.schedule(format!("joiner-{name}"), POD).unwrap();
        }
        let err = pool.schedule("joiner-s-2", POD).unwrap_err();
        assert!(err.to_string().contains("unschedulable"));
        assert_eq!(pool.max_schedulable(POD), 0);
        assert!(pool.cpu_allocation() > 0.85);
        assert_eq!(pool.pods_per_node(), vec![1; 8]);
    }

    #[test]
    fn memory_binds_when_cpu_does_not() {
        let node = Resources { cpu_millis: 10_000, memory_bytes: 1024 };
        let mut pool = NodePool::homogeneous(1, node);
        let hungry = Resources { cpu_millis: 100, memory_bytes: 600 };
        assert_eq!(pool.max_schedulable(hungry), 1);
        pool.schedule("a", hungry).unwrap();
        assert!(pool.schedule("b", hungry).is_err());
    }
}
