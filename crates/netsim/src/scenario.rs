//! Deterministic, paper-exact scenarios.
//!
//! These reconstruct the concrete examples the paper walks through: the
//! Table 2 toy (16 messages, one link flapping between r1 and r2), the
//! Figure 4 unstable controller, the Figure 5 periodic TCP bad-auth
//! series, and the §6.1 dual-failure PIM outage.

use crate::events::EventSim;
use crate::grammar::Grammar;
use crate::ip::Ipv4;
use crate::topology::{
    Controller, EndPoint, IfaceKind, Interface, Link, Router, RouterRole, Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sd_model::{RawMessage, Timestamp, Vendor};

/// The two-router topology of Table 2: `r1` interface `Serial1/0.10/10:0`
/// connected to `r2` interface `Serial1/0.20/20:0`.
pub fn toy_topology() -> Topology {
    let mk_router = |name: &str, site: &str, state: &str, lb: Ipv4| Router {
        name: name.to_owned(),
        site: site.to_owned(),
        state: state.to_owned(),
        vendor: Vendor::V1,
        role: RouterRole::Core,
        loopback: lb,
        slots: 2,
        ports_per_slot: 2,
        interfaces: vec![
            Interface {
                name: "Loopback0".to_owned(),
                slot: 0,
                port: 0,
                sub: None,
                parent: None,
                ip: Some(lb),
                kind: IfaceKind::Loopback,
            },
            Interface {
                name: "Serial1/0".to_owned(),
                slot: 1,
                port: 0,
                sub: None,
                parent: None,
                ip: None,
                kind: IfaceKind::Serial,
            },
        ],
        controllers: vec![Controller {
            name: "T3 1/0/0".to_owned(),
            slot: 1,
            port: 0,
            children: vec![1],
        }],
        bundles: Vec::new(),
    };
    let mut r1 = mk_router("r1", "nyc", "NY", Ipv4::new(10, 255, 0, 1));
    let mut r2 = mk_router("r2", "chi", "IL", Ipv4::new(10, 255, 0, 2));
    r1.interfaces.push(Interface {
        name: "Serial1/0.10/10:0".to_owned(),
        slot: 1,
        port: 0,
        sub: Some(10),
        parent: Some(1),
        ip: Some(Ipv4::new(10, 0, 0, 1)),
        kind: IfaceKind::Serial,
    });
    r2.interfaces.push(Interface {
        name: "Serial1/0.20/20:0".to_owned(),
        slot: 1,
        port: 0,
        sub: Some(20),
        parent: Some(1),
        ip: Some(Ipv4::new(10, 0, 0, 2)),
        kind: IfaceKind::Serial,
    });
    Topology {
        routers: vec![r1, r2],
        links: vec![Link {
            a: EndPoint {
                router: 0,
                iface: 2,
            },
            b: EndPoint {
                router: 1,
                iface: 2,
            },
        }],
        bgp_sessions: Vec::new(),
        paths: Vec::new(),
        pim: Vec::new(),
    }
}

/// The exact 16 messages of Table 2 (two full link flaps at 2010-01-10
/// 00:00:00/10/20/30, both routers, LINK + LINEPROTO layers).
pub fn toy_table2_messages() -> Vec<RawMessage> {
    let g = Grammar::for_vendor(Vendor::V1);
    let t0 = Timestamp::from_ymd_hms(2010, 1, 10, 0, 0, 0);
    let if1 = "Serial1/0.10/10:0";
    let if2 = "Serial1/0.20/20:0";
    let mut out = Vec::with_capacity(16);
    let mut push = |ts: Timestamp, router: &str, key: &str, iface: &str| {
        let t = g.get(key);
        let detail = t.render(|_| iface);
        out.push(RawMessage::new(ts, router, t.code.clone(), detail).with_gt(1));
    };
    for (i, state) in ["DOWN", "UP", "DOWN", "UP"].iter().enumerate() {
        let base = t0.plus(i as i64 * 10);
        let (link_key, proto_key) = if *state == "DOWN" {
            ("LINK_DOWN", "LINEPROTO_DOWN")
        } else {
            ("LINK_UP", "LINEPROTO_UP")
        };
        push(base, "r1", link_key, if1);
        push(base, "r2", link_key, if2);
        push(base.plus(1), "r1", proto_key, if1);
        push(base.plus(1), "r2", proto_key, if2);
    }
    out
}

/// Figure 4: one controller flapping in clusters over several hours.
/// Returns `(topology, messages)`; messages are time-sorted.
pub fn fig4_controller(seed: u64) -> (Topology, Vec<RawMessage>) {
    let topo = Topology::generate(&crate::topology::TopoSpec {
        n_routers: 8,
        vendor: Vendor::V1,
        iptv: false,
        seed,
    });
    let grammar = Grammar::for_vendor(Vendor::V1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = EventSim::new(&topo, &grammar);
    let router = topo
        .routers
        .iter()
        .position(|r| !r.controllers.is_empty())
        .expect("a V1 topology has controllers");
    let t0 = Timestamp::from_ymd_hms(2009, 12, 5, 0, 30, 0);
    // Three instability episodes spread across ~7 hours.
    for cluster in 0..3 {
        sim.controller_flap(&mut rng, router, 0, t0.plus(cluster * 10_800), 5);
    }
    let mut msgs = sim.msgs;
    sd_model::sort_batch(&mut msgs);
    (topo, msgs)
}

/// Figure 5: periodic TCP bad-authentication messages over ~6 hours.
pub fn fig5_tcp_badauth(seed: u64) -> (Topology, Vec<RawMessage>) {
    let topo = Topology::generate(&crate::topology::TopoSpec {
        n_routers: 8,
        vendor: Vendor::V1,
        iptv: false,
        seed,
    });
    let grammar = Grammar::for_vendor(Vendor::V1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
    let mut sim = EventSim::new(&topo, &grammar);
    let t0 = Timestamp::from_ymd_hms(2009, 12, 5, 0, 10, 0);
    sim.tcp_badauth_wave(&mut rng, 0, t0);
    let mut msgs = sim.msgs;
    sd_model::sort_batch(&mut msgs);
    (topo, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_sixteen_messages_matching_paper() {
        let msgs = toy_table2_messages();
        assert_eq!(msgs.len(), 16);
        assert_eq!(
            msgs[0].to_line(),
            "2010-01-10 00:00:00 r1 LINK-3-UPDOWN Interface Serial1/0.10/10:0, \
             changed state to down"
        );
        assert_eq!(
            msgs[3].to_line(),
            "2010-01-10 00:00:01 r2 LINEPROTO-5-UPDOWN Line protocol on Interface \
             Serial1/0.20/20:0, changed state to down"
        );
        // Last message at 00:00:31 as in the paper's digest line.
        assert_eq!(msgs.last().unwrap().ts.to_string(), "2010-01-10 00:00:31");
    }

    #[test]
    fn toy_topology_connects_the_paper_interfaces() {
        let t = toy_topology();
        let l = &t.links[0];
        let (r1, i1) = t.endpoint(l.a);
        let (r2, i2) = t.endpoint(l.b);
        assert_eq!(
            (r1.name.as_str(), i1.name.as_str()),
            ("r1", "Serial1/0.10/10:0")
        );
        assert_eq!(
            (r2.name.as_str(), i2.name.as_str()),
            ("r2", "Serial1/0.20/20:0")
        );
    }

    #[test]
    fn fig4_has_clustered_controller_messages() {
        let (_, msgs) = fig4_controller(3);
        let ctl: Vec<_> = msgs
            .iter()
            .filter(|m| m.code() == "CONTROLLER-5-UPDOWN")
            .collect();
        assert!(ctl.len() >= 24, "got {}", ctl.len());
        // Span multiple hours.
        let span = ctl.last().unwrap().ts.seconds_since(ctl[0].ts);
        assert!(span > 2 * 3600, "span {span}");
    }
}
