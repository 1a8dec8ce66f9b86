//! The serving stack the socket suites run against: a node, or a router
//! in front of a node, each on its own event loop over loopback. A suite
//! that takes a [`Front`] runs its cases through either front door.
//!
//! Every suite that checks a counter reads it from the Prometheus
//! exposition, the one way counters leave a process, through [`scrape`].
#![allow(dead_code)] // each suite uses a subset of these helpers

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use arrayflow_cluster::Topology;
use arrayflow_service::{
    Client, ClientConfig, EventServer, FrameHandler, Json, Router, RouterConfig, Service,
    ServiceConfig,
};

/// The event loop a suite's clients talk to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// The node itself.
    Node,
    /// A router in front of the node.
    Router,
}

/// A running stack; clients connect to `addr`.
pub struct Stack {
    pub addr: SocketAddr,
    front: JoinHandle<io::Result<()>>,
    /// The node behind a router.
    node: Option<(SocketAddr, JoinHandle<io::Result<()>>)>,
}

fn serve<H: FrameHandler>(
    handler: Arc<H>,
    idle_timeout: Duration,
) -> (SocketAddr, JoinHandle<io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = EventServer::attach(listener, handler).idle_timeout(idle_timeout);
    (addr, std::thread::spawn(move || server.run()))
}

impl Stack {
    /// Starts a node on `config`. With [`Front::Router`] a router stands
    /// in front of it with the node's frame cap, so oversized frames meet
    /// the router's own cap. `idle_timeout` is the front door's.
    pub fn start(front: Front, config: ServiceConfig, idle_timeout: Duration) -> Stack {
        let max_frame_bytes = config.max_frame_bytes;
        let service = Service::start(config).expect("start service");
        if front == Front::Node {
            let (addr, front) = serve(service, idle_timeout);
            return Stack {
                addr,
                front,
                node: None,
            };
        }
        let node = serve(service, Duration::from_secs(60));
        let topology = Topology::parse(&format!("n1={}", node.0)).expect("topology");
        let mut config = RouterConfig::new(topology);
        config.max_frame_bytes = max_frame_bytes;
        let (addr, front) = serve(Router::start(config).expect("router"), idle_timeout);
        Stack {
            addr,
            front,
            node: Some(node),
        }
    }

    /// Waits for the front door to stop after a `shutdown` sent through
    /// it, then stops the node behind a router.
    pub fn join(self) {
        self.front.join().expect("front door").expect("run");
        if let Some((addr, node)) = self.node {
            let mut client = Client::new(addr.to_string(), ClientConfig::default());
            client.shutdown().expect("node shutdown");
            node.join().expect("node").expect("run");
        }
    }
}

/// Sum of every sample of `name` in a Prometheus text exposition whose
/// label set holds each of `labels` (`key="value"` pairs; any label set
/// when empty). `None` when no sample matches: the series is not
/// exported.
pub fn scrape(text: &str, name: &str, labels: &[&str]) -> Option<u64> {
    let mut sum = None;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(name) else {
            continue;
        };
        let (set, value) = match rest.strip_prefix('{') {
            Some(r) => match r.split_once('}') {
                Some(split) => split,
                None => continue,
            },
            None if rest.starts_with(' ') => ("", rest),
            None => continue,
        };
        if !labels
            .iter()
            .all(|want| set.split(',').any(|kv| kv == *want))
        {
            continue;
        }
        if let Ok(v) = value.trim().parse::<u64>() {
            *sum.get_or_insert(0) += v;
        }
    }
    sum
}

/// The exposition a JSON `metrics` response carries, `result.prometheus`.
pub fn exposition(resp: &Json) -> String {
    resp.get("result")
        .and_then(|r| r.get("prometheus"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no exposition in {resp:?}"))
        .to_string()
}
