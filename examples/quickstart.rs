//! Quickstart: the Figure 2 scenario from the paper.
//!
//! Builds the routing-connection property graph of Figure 2 (hosts identified
//! by IP address, directed "connects-to" relationships), runs the batch 2-hop
//! path query
//!
//! ```text
//! UNWIND ['127.0.0.2','127.0.0.3'] AS ipAddr MATCH ({ip:ipAddr})-[2]->(t)
//! ```
//!
//! on Moctopus, and prints the matched destinations together with the
//! simulated cost breakdown.
//!
//! Run with: `cargo run --example quickstart`

use graph_store::{Label, NodeId, PropertyGraph, PropertyValue};
use moctopus::{GraphEngine, MoctopusConfig, MoctopusSystem};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Ingest the property graph exactly as a graph database client would.
    let mut property_graph = PropertyGraph::new();
    let hosts: Vec<NodeId> = (0..10)
        .map(|i| {
            property_graph.add_node("Host", [("ip", PropertyValue::from(format!("127.0.0.{i}")))])
        })
        .collect();
    let connections = [
        (0, 1),
        (1, 2),
        (1, 4),
        (2, 3),
        (2, 5),
        (3, 6),
        (3, 9),
        (4, 5),
        (5, 6),
        (5, 8),
        (6, 9),
        (8, 9),
    ];
    for (src, dst) in connections {
        property_graph.add_edge(hosts[src], hosts[dst], Label::ANY)?;
    }
    println!(
        "ingested routing graph: {} hosts, {} connections",
        property_graph.node_count(),
        property_graph.edge_count()
    );

    // 2. Load the simplified adjacency view into Moctopus (8 PIM modules).
    let adjacency = property_graph.to_adjacency();
    let edges: Vec<(NodeId, NodeId)> = adjacency.edges().map(|(s, d, _)| (s, d)).collect();
    let mut moctopus = MoctopusSystem::new(MoctopusConfig::small_test()).with_edge_stream(&edges);

    // 3. Resolve the query's start nodes by property lookup, then run the
    //    batch 2-hop path query.
    let start_ips = ["127.0.0.2", "127.0.0.3"];
    let sources: Vec<NodeId> = start_ips
        .iter()
        .filter_map(|ip| property_graph.find_by_property("ip", &PropertyValue::from(*ip)))
        .collect();
    let (results, stats) = moctopus.k_hop_batch(&sources, 2);

    // 4. Report results the way the paper's Figure 2 does.
    println!("\nbatch 2-hop path query (batch size = {}):", sources.len());
    for (ip, matched) in start_ips.iter().zip(&results) {
        let ids: Vec<String> = matched.iter().map(|n| format!("Node {}", n.0)).collect();
        println!("  {ip}: {}", if ids.is_empty() { "(none)".to_owned() } else { ids.join(", ") });
    }
    println!("\nsimulated cost breakdown: {}", stats.timeline);
    println!(
        "partition state: {} rows on the host, locality = {:.2}",
        moctopus.host_row_count(),
        moctopus.partition_metrics().locality
    );
    Ok(())
}
