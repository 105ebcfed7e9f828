//! Router configuration rendering.
//!
//! The paper's location learner does **not** parse vendor manuals; it parses
//! router *configs*, which are well structured, to build the location
//! dictionary (§4.1.2). This module renders a config file per router from
//! the generated topology, in a Cisco-like stanza format for vendor V1 and
//! a TiMOS-like format for vendor V2. `sd-locations` consumes these texts —
//! and nothing else — to learn every location it knows.

use crate::topology::{IfaceKind, Topology};
use sd_model::Vendor;
use std::fmt::Write as _;

/// Render the configuration text of router `idx` in `topo`.
///
/// The output contains, for every location object the router knows:
/// hostname, controllers, interfaces (with addresses), multilink bundles
/// (with member lists), link descriptions naming the remote router and
/// interface, BGP neighbor statements (with VRFs), LSP path stanzas and PIM
/// adjacency stanzas.
pub(crate) fn render_config(topo: &Topology, idx: usize) -> String {
    let r = &topo.routers[idx];
    let mut out = String::with_capacity(4096);
    match r.vendor {
        Vendor::V1 => {
            let _ = writeln!(out, "hostname {}", r.name);
            let _ = writeln!(out, "site {} state {}", r.site, r.state);
            out.push_str("!\n");
            for c in &r.controllers {
                let _ = writeln!(out, "controller {}", c.name);
                out.push_str("!\n");
            }
            for (i, ifc) in r.interfaces.iter().enumerate() {
                let _ = writeln!(out, "interface {}", ifc.name);
                match ifc.ip {
                    Some(ip) => {
                        let mask = if ifc.kind == IfaceKind::Loopback {
                            "255.255.255.255"
                        } else {
                            "255.255.255.252"
                        };
                        let _ = writeln!(out, " ip address {ip} {mask}");
                    }
                    None => out.push_str(" no ip address\n"),
                }
                if let Some(desc) = link_description(topo, idx, i) {
                    let _ = writeln!(out, " description {desc}");
                }
                out.push_str("!\n");
            }
            for b in &r.bundles {
                let _ = writeln!(out, "interface {}", b.name);
                let _ = writeln!(out, " ip address {} 255.255.255.252", b.ip);
                for &m in &b.members {
                    let _ = writeln!(out, " multilink-group member {}", r.interfaces[m].name);
                }
                out.push_str("!\n");
            }
            out.push_str("router bgp 65000\n");
            for s in &topo.bgp_sessions {
                let (peer_addr, vrf) = if s.a == idx {
                    (s.b_addr, &s.vrf)
                } else if s.b == idx {
                    (s.a_addr, &s.vrf)
                } else {
                    continue;
                };
                match vrf {
                    None => {
                        let _ = writeln!(out, " neighbor {peer_addr} remote-as 65000");
                    }
                    Some(v) => {
                        let _ = writeln!(out, " address-family ipv4 vrf {v}");
                        let _ = writeln!(out, "  neighbor {peer_addr} remote-as 65001");
                    }
                }
            }
            out.push_str("!\n");
        }
        Vendor::V2 => {
            let _ = writeln!(out, "system name {}", r.name);
            let _ = writeln!(out, "system location {} {}", r.site, r.state);
            out.push_str("#\n");
            for (i, ifc) in r.interfaces.iter().enumerate() {
                if ifc.kind == IfaceKind::Loopback {
                    let _ = writeln!(out, "interface system");
                    if let Some(ip) = ifc.ip {
                        let _ = writeln!(out, " address {ip}/32");
                    }
                    out.push_str("#\n");
                    continue;
                }
                let _ = writeln!(out, "port {}", ifc.name);
                if let Some(ip) = ifc.ip {
                    let _ = writeln!(out, " address {ip}/30");
                }
                if let Some(desc) = link_description(topo, idx, i) {
                    let _ = writeln!(out, " description \"{desc}\"");
                }
                out.push_str("#\n");
            }
            out.push_str("router bgp\n");
            for s in &topo.bgp_sessions {
                let (peer_addr, vrf) = if s.a == idx {
                    (s.b_addr, &s.vrf)
                } else if s.b == idx {
                    (s.a_addr, &s.vrf)
                } else {
                    continue;
                };
                match vrf {
                    None => {
                        let _ = writeln!(out, " neighbor {peer_addr}");
                    }
                    Some(v) => {
                        let _ = writeln!(out, " vrf {v} neighbor {peer_addr}");
                    }
                }
            }
            out.push_str("#\n");
        }
    }
    // Path and PIM stanzas are vendor-neutral in our rendering.
    for p in &topo.paths {
        if p.from == idx {
            let names: Vec<&str> = path_router_names(topo, p.hops.iter().copied(), p.from);
            let _ = writeln!(
                out,
                "mpls lsp {} to {} path {}",
                p.name,
                topo.routers[p.to].name,
                names.join(" ")
            );
        }
    }
    for adj in &topo.pim {
        let (peer, local_end) = if adj.a == idx {
            (adj.b, topo.links[adj.primary_link].peer_of(adj.b))
        } else if adj.b == idx {
            (adj.a, topo.links[adj.primary_link].peer_of(adj.a))
        } else {
            continue;
        };
        if let Some(ep) = local_end {
            let local_iface = &topo.routers[ep.router].interfaces[ep.iface].name;
            let _ = writeln!(
                out,
                "pim neighbor {} primary {} secondary-lsp {}",
                topo.routers[peer].name, local_iface, topo.paths[adj.secondary_path].name
            );
        }
    }
    out
}

/// Render configs for every router.
pub fn render_all(topo: &Topology) -> Vec<String> {
    (0..topo.routers.len())
        .map(|i| render_config(topo, i))
        .collect()
}

/// `link to <router> <iface>` description for interface `iface` of router
/// `idx`, if that interface terminates a link.
fn link_description(topo: &Topology, idx: usize, iface: usize) -> Option<String> {
    for l in &topo.links {
        let (me, peer) = if l.a.router == idx && l.a.iface == iface {
            (l.a, l.b)
        } else if l.b.router == idx && l.b.iface == iface {
            (l.b, l.a)
        } else {
            continue;
        };
        let _ = me;
        let (pr, pi) = topo.endpoint(peer);
        return Some(format!("link to {} {}", pr.name, pi.name));
    }
    None
}

/// The router names along a hop sequence starting at `from`.
fn path_router_names(topo: &Topology, hops: impl Iterator<Item = usize>, from: usize) -> Vec<&str> {
    let mut names = vec![topo.routers[from].name.as_str()];
    let mut cur = from;
    for h in hops {
        if let Some(peer) = topo.links[h].peer_of(cur) {
            cur = peer.router;
            names.push(topo.routers[cur].name.as_str());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoSpec;

    #[test]
    fn v1_config_contains_hierarchy_and_links() {
        let topo = Topology::generate(&TopoSpec {
            n_routers: 12,
            vendor: Vendor::V1,
            iptv: false,
            seed: 3,
        });
        let cfg = render_config(&topo, 0);
        assert!(cfg.contains(&format!("hostname {}", topo.routers[0].name)));
        assert!(cfg.contains("interface Loopback0"));
        assert!(cfg.contains("ip address 10.255.0.1 255.255.255.255"));
        assert!(cfg.contains("description link to "));
        assert!(cfg.contains("router bgp 65000"));
    }

    #[test]
    fn v2_config_uses_port_stanzas() {
        let topo = Topology::generate(&TopoSpec {
            n_routers: 12,
            vendor: Vendor::V2,
            iptv: true,
            seed: 3,
        });
        let cfg = render_config(&topo, 0);
        assert!(cfg.contains(&format!("system name {}", topo.routers[0].name)));
        assert!(cfg.contains("port "));
        assert!(cfg.contains("description \"link to "));
    }

    #[test]
    fn iptv_head_end_has_pim_and_lsp_stanzas() {
        let topo = Topology::generate(&TopoSpec {
            n_routers: 16,
            vendor: Vendor::V2,
            iptv: true,
            seed: 5,
        });
        let adj = &topo.pim[0];
        let cfg_a = render_config(&topo, adj.a);
        assert!(
            cfg_a.contains("pim neighbor "),
            "missing pim stanza:\n{cfg_a}"
        );
        let head = topo.paths[adj.secondary_path].from;
        let cfg_head = render_config(&topo, head);
        assert!(cfg_head.contains("mpls lsp "), "missing lsp stanza");
    }

    #[test]
    fn descriptions_are_symmetric() {
        let topo = Topology::generate(&TopoSpec {
            n_routers: 10,
            vendor: Vendor::V1,
            iptv: false,
            seed: 9,
        });
        let l = &topo.links[0];
        let (ra, ia) = topo.endpoint(l.a);
        let (rb, ib) = topo.endpoint(l.b);
        let cfg_a = render_config(&topo, l.a.router);
        let cfg_b = render_config(&topo, l.b.router);
        assert!(cfg_a.contains(&format!("link to {} {}", rb.name, ib.name)));
        assert!(cfg_b.contains(&format!("link to {} {}", ra.name, ia.name)));
    }

    #[test]
    fn render_all_gives_one_config_per_router() {
        let topo = Topology::generate(&TopoSpec {
            n_routers: 8,
            vendor: Vendor::V1,
            iptv: false,
            seed: 1,
        });
        let cfgs = render_all(&topo);
        assert_eq!(cfgs.len(), topo.routers.len());
        for (r, c) in topo.routers.iter().zip(&cfgs) {
            assert!(c.contains(&r.name));
        }
    }
}
