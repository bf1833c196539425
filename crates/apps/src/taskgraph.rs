//! Kahn-like process graphs.
//!
//! "The designer has to partition the application into a Kahn like process
//! graph model. In this model the application is represented as a graph with
//! communicating functional processes" (paper Section 1). At run time the
//! CCN maps processes onto tiles and the edges onto NoC lanes; this module
//! provides the graph itself plus the queries the CCN's feasibility analysis
//! needs (per-edge bandwidth, totals, topological structure).

use noc_sim::units::Bandwidth;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Index of a process in its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub usize);

/// Index of an edge in its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// How data flows on an edge (paper Section 3.3: block-based for OFDM,
/// streaming for CDMA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficShape {
    /// Periodic blocks: `words` 16-bit words delivered every `period_us`
    /// microseconds (an OFDM symbol, for instance).
    Block {
        /// Words per block.
        words: u32,
        /// Block period in microseconds.
        period_us: f64,
    },
    /// Continuous streaming: "at a regular short interval a very small
    /// packet, containing 1 sample, has to be transported" (Section 3.2).
    Streaming,
}

/// One functional process.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// Human-readable name (matches the paper's block diagrams).
    pub name: String,
    /// Preferred tile kind for mapping (free-form hint, e.g. "FFT", "GPP").
    pub affinity: Option<String>,
}

/// One communication edge with its GT bandwidth requirement.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producing process.
    pub src: ProcessId,
    /// Consuming process.
    pub dst: ProcessId,
    /// Required guaranteed-throughput bandwidth.
    pub bandwidth: Bandwidth,
    /// Block or streaming traffic.
    pub shape: TrafficShape,
    /// Label (matches the paper's table rows, e.g. "FFT -> Channel eq.").
    pub label: String,
}

/// A Kahn-like process graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskGraph {
    /// Application name.
    pub name: String,
    processes: Vec<Process>,
    edges: Vec<Edge>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new(name: impl Into<String>) -> TaskGraph {
        TaskGraph {
            name: name.into(),
            processes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a process; returns its id.
    pub fn add_process(&mut self, name: impl Into<String>) -> ProcessId {
        self.processes.push(Process {
            name: name.into(),
            affinity: None,
        });
        ProcessId(self.processes.len() - 1)
    }

    /// Add a process with a tile-kind affinity hint.
    pub fn add_process_with_affinity(
        &mut self,
        name: impl Into<String>,
        affinity: impl Into<String>,
    ) -> ProcessId {
        let id = self.add_process(name);
        self.processes[id.0].affinity = Some(affinity.into());
        id
    }

    /// Add an edge; returns its id.
    ///
    /// # Panics
    /// Panics on dangling endpoints or self-loops — both are construction
    /// bugs in a workload definition, not runtime conditions.
    pub fn add_edge(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        bandwidth: Bandwidth,
        shape: TrafficShape,
        label: impl Into<String>,
    ) -> EdgeId {
        assert!(src.0 < self.processes.len(), "dangling source");
        assert!(dst.0 < self.processes.len(), "dangling destination");
        assert_ne!(src, dst, "self-loop communication is meaningless");
        self.edges.push(Edge {
            src,
            dst,
            bandwidth,
            shape,
            label: label.into(),
        });
        EdgeId(self.edges.len() - 1)
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The process with id `id`.
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.0]
    }

    /// The edge with id `id`.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// All processes with their ids.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &Process)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i), p))
    }

    /// All edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Find a process id by name.
    pub fn find(&self, name: &str) -> Option<ProcessId> {
        self.processes
            .iter()
            .position(|p| p.name == name)
            .map(ProcessId)
    }

    /// Sum of all edge bandwidths — the total GT load the NoC must carry.
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.edges.iter().map(|e| e.bandwidth).sum()
    }

    /// The highest single-edge bandwidth (the binding constraint for lane
    /// allocation).
    pub fn peak_edge_bandwidth(&self) -> Bandwidth {
        self.edges
            .iter()
            .map(|e| e.bandwidth)
            .fold(Bandwidth::ZERO, Bandwidth::max)
    }

    /// Topological order of the processes, if the graph is acyclic.
    /// Control loops (the paper's Synchronization block feeds back) make
    /// some graphs cyclic; those return `None` and mapping falls back to
    /// insertion order.
    pub fn topological_order(&self) -> Option<Vec<ProcessId>> {
        let n = self.processes.len();
        let mut indegree = vec![0usize; n];
        let mut succ: HashMap<usize, Vec<usize>> = HashMap::new();
        for e in &self.edges {
            indegree[e.dst.0] += 1;
            succ.entry(e.src.0).or_default().push(e.dst.0);
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(ProcessId(i));
            for &s in succ.get(&i).into_iter().flatten() {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }
}

impl fmt::Display for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} processes, {} edges, {:.2} total",
            self.name,
            self.process_count(),
            self.edge_count(),
            self.total_bandwidth()
        )?;
        for (_, e) in self.edges() {
            writeln!(
                f,
                "  {} -> {}: {:.2} [{}]",
                self.process(e.src).name,
                self.process(e.dst).name,
                e.bandwidth,
                e.label
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> TaskGraph {
        let mut g = TaskGraph::new("chain");
        let ids: Vec<ProcessId> = (0..n).map(|i| g.add_process(format!("p{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(
                w[0],
                w[1],
                Bandwidth(100.0),
                TrafficShape::Streaming,
                "link",
            );
        }
        g
    }

    #[test]
    fn build_and_query() {
        let g = chain(4);
        assert_eq!(g.process_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.find("p2"), Some(ProcessId(2)));
        assert_eq!(g.find("nope"), None);
        assert!((g.total_bandwidth().value() - 300.0).abs() < 1e-12);
        assert!((g.peak_edge_bandwidth().value() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn topological_order_of_chain() {
        let g = chain(5);
        let order = g.topological_order().expect("chain is acyclic");
        assert_eq!(order, (0..5).map(ProcessId).collect::<Vec<_>>());
    }

    #[test]
    fn cycle_detected() {
        let mut g = chain(3);
        let p0 = ProcessId(0);
        let p2 = ProcessId(2);
        g.add_edge(p2, p0, Bandwidth(1.0), TrafficShape::Streaming, "back");
        assert_eq!(g.topological_order(), None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = TaskGraph::new("bad");
        let p = g.add_process("p");
        g.add_edge(p, p, Bandwidth(1.0), TrafficShape::Streaming, "loop");
    }

    #[test]
    #[should_panic(expected = "dangling")]
    fn dangling_edge_rejected() {
        let mut g = TaskGraph::new("bad");
        let p = g.add_process("p");
        g.add_edge(
            p,
            ProcessId(7),
            Bandwidth(1.0),
            TrafficShape::Streaming,
            "x",
        );
    }

    #[test]
    fn affinity_hint_stored() {
        let mut g = TaskGraph::new("g");
        let p = g.add_process_with_affinity("fft", "FFT");
        assert_eq!(g.process(p).affinity.as_deref(), Some("FFT"));
    }

    #[test]
    fn display_lists_edges() {
        let g = chain(3);
        let s = g.to_string();
        assert!(s.contains("p0 -> p1"));
        assert!(s.contains("200")); // total bandwidth
    }
}
