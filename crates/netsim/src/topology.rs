//! Synthetic router-level network topology.
//!
//! The paper's two networks are proprietary; this module generates networks
//! with the same *structural* properties the mining pipeline depends on:
//! a physical location hierarchy inside every router (slot → port →
//! physical interface → logical sub-interface, Figure 3), inter-router
//! links terminating on specific interfaces, BGP sessions (optionally in
//! VPN VRFs), multilink bundles, controllers, and — for the IPTV network —
//! a PIM multicast tree whose edges have primary and secondary (multi-hop,
//! MPLS FRR-protected) paths, as required by the §6.1 case study.

use crate::ip::{IpAllocator, Ipv4};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sd_model::Vendor;
use serde::{Deserialize, Serialize};

/// (city code, state code) pool for router sites; state codes are what
/// trouble tickets carry (§5.3 matches locations "at the state level").
pub(crate) const SITES: &[(&str, &str)] = &[
    ("nyc", "NY"),
    ("chi", "IL"),
    ("dal", "TX"),
    ("atl", "GA"),
    ("sea", "WA"),
    ("lax", "CA"),
    ("den", "CO"),
    ("mia", "FL"),
    ("bos", "MA"),
    ("phx", "AZ"),
    ("stl", "MO"),
    ("msp", "MN"),
    ("phl", "PA"),
    ("slc", "UT"),
    ("pdx", "OR"),
    ("clt", "NC"),
];

/// Kind of a physical interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IfaceKind {
    /// Channelized serial (vendor V1), e.g. `Serial1/0.10/10:0`.
    Serial,
    /// Gigabit ethernet (vendor V1), e.g. `GigabitEthernet2/1`.
    Ethernet,
    /// Numeric V2 port interface, e.g. `1/1/1`.
    PortV2,
    /// Router loopback.
    Loopback,
}

/// One (physical or logical) interface on a router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Interface {
    /// Vendor-rendered interface name, unique within the router.
    pub name: String,
    /// Slot (linecard) index on the chassis.
    pub slot: u8,
    /// Port index within the slot.
    pub(crate) port: u8,
    /// Sub-interface / channel discriminator, `None` for physical ports.
    pub(crate) sub: Option<u16>,
    /// Index of the parent physical interface for logical sub-interfaces.
    pub(crate) parent: Option<usize>,
    /// Assigned address, if the interface is L3-configured.
    pub(crate) ip: Option<Ipv4>,
    /// Media/vendor kind.
    pub kind: IfaceKind,
}

impl Interface {
    /// Whether this is a logical sub-interface.
    pub(crate) fn is_logical(&self) -> bool {
        self.parent.is_some()
    }
}

/// A channelized controller (V1 only), the port-level parent of serial
/// interfaces; the Figure 4 instability scenario flaps one of these.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Controller {
    /// Controller name, e.g. `T3 1/0/0`.
    pub name: String,
    /// Slot index.
    pub slot: u8,
    /// Port index.
    pub(crate) port: u8,
    /// Indices (into `Router::interfaces`) of child serial interfaces.
    pub(crate) children: Vec<usize>,
}

/// A multilink bundle aggregating several physical member interfaces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Bundle {
    /// Bundle interface name, e.g. `Multilink3`.
    pub name: String,
    /// Member physical-interface indices.
    pub members: Vec<usize>,
    /// Bundle L3 address.
    pub(crate) ip: Ipv4,
}

/// Role of a router in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RouterRole {
    /// Backbone core router (or IPTV VHO core).
    Core,
    /// Aggregation / edge router.
    Aggregation,
}

/// A router chassis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Router {
    /// Unique router name, e.g. `cr1.dal` (no whitespace: it appears as a
    /// single syslog field).
    pub name: String,
    /// City code of the hosting site.
    pub(crate) site: String,
    /// State code (ticket-matching granularity).
    pub state: String,
    /// Vendor family, determining message grammar and interface naming.
    pub vendor: Vendor,
    /// Network role.
    pub(crate) role: RouterRole,
    /// Loopback address.
    pub(crate) loopback: Ipv4,
    /// Number of slots in the chassis (slot indices `0..slots`).
    pub(crate) slots: u8,
    /// Ports per slot (port indices `0..ports_per_slot`).
    pub(crate) ports_per_slot: u8,
    /// All interfaces, physical first then logical children.
    pub(crate) interfaces: Vec<Interface>,
    /// Channelized controllers (V1 only).
    pub(crate) controllers: Vec<Controller>,
    /// Multilink bundles.
    pub(crate) bundles: Vec<Bundle>,
}

impl Router {
    /// Find an interface index by name.
    pub(crate) fn iface_by_name(&self, name: &str) -> Option<usize> {
        self.interfaces.iter().position(|i| i.name == name)
    }
}

/// One endpoint of a link: router index + interface index on that router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EndPoint {
    /// Index into `Topology::routers`.
    pub(crate) router: usize,
    /// Index into that router's `interfaces`.
    pub(crate) iface: usize,
}

/// A physical/logical inter-router link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// One end.
    pub a: EndPoint,
    /// The other end.
    pub b: EndPoint,
}

impl Link {
    /// The opposite endpoint, given one side's router index.
    pub(crate) fn peer_of(&self, router: usize) -> Option<EndPoint> {
        if self.a.router == router {
            Some(self.b)
        } else if self.b.router == router {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A BGP session between two routers (optionally inside a VPN VRF).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BgpSession {
    /// One endpoint router index.
    pub a: usize,
    /// Other endpoint router index.
    pub b: usize,
    /// Address `a` uses to reach `b` (the "neighbor" address in `a`'s logs).
    pub(crate) b_addr: Ipv4,
    /// Address `b` uses to reach `a`.
    pub(crate) a_addr: Ipv4,
    /// VRF id (`1000:1001` style) for VPN sessions, `None` for plain iBGP.
    pub(crate) vrf: Option<String>,
    /// Index of the link the session rides on, when single-hop.
    pub link: Option<usize>,
}

/// A multi-hop protection path (MPLS LSP) between two routers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathRoute {
    /// LSP name, e.g. `LSP-cr1.dal-cr2.atl-sec`.
    pub name: String,
    /// Head-end router index.
    pub(crate) from: usize,
    /// Tail-end router index.
    pub(crate) to: usize,
    /// Link indices the path traverses, in order.
    pub(crate) hops: Vec<usize>,
}

/// A PIM adjacency (IPTV multicast-tree edge) with primary and secondary
/// delivery paths (§6.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PimAdjacency {
    /// One endpoint router index.
    pub a: usize,
    /// Other endpoint router index.
    pub b: usize,
    /// Primary single-hop link index.
    pub(crate) primary_link: usize,
    /// Secondary multi-hop path index into `Topology::paths`.
    pub(crate) secondary_path: usize,
}

/// The whole generated network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// All routers.
    pub routers: Vec<Router>,
    /// All inter-router links.
    pub links: Vec<Link>,
    /// All BGP sessions.
    pub bgp_sessions: Vec<BgpSession>,
    /// Multi-hop protection paths.
    pub paths: Vec<PathRoute>,
    /// PIM multicast-tree adjacencies (empty for non-IPTV networks).
    pub(crate) pim: Vec<PimAdjacency>,
}

/// Parameters for topology generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopoSpec {
    /// Total number of routers (min 4).
    pub n_routers: usize,
    /// Vendor family for all routers in the network.
    pub vendor: Vendor,
    /// Whether to overlay an IPTV multicast tree with protection paths.
    pub iptv: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Topology {
    /// Resolve an endpoint to `(router, interface)`.
    pub fn endpoint(&self, ep: EndPoint) -> (&Router, &Interface) {
        let r = &self.routers[ep.router];
        (r, &r.interfaces[ep.iface])
    }

    /// Find the link connecting two routers, if any single-hop link exists.
    pub(crate) fn link_between(&self, a: usize, b: usize) -> Option<usize> {
        self.links.iter().position(|l| {
            (l.a.router == a && l.b.router == b) || (l.a.router == b && l.b.router == a)
        })
    }

    /// Generate a topology from a spec. Deterministic in the seed.
    pub fn generate(spec: &TopoSpec) -> Topology {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x70b0_1051);
        let n = spec.n_routers.max(4);
        let n_core = (n / 4).clamp(2, SITES.len());
        let mut loopbacks = IpAllocator::new(Ipv4::new(10, 255, 0, 1));
        let mut link_ips = IpAllocator::new(Ipv4::new(10, 0, 0, 1));

        let mut routers: Vec<Router> = Vec::with_capacity(n);
        for i in 0..n {
            let role = if i < n_core {
                RouterRole::Core
            } else {
                RouterRole::Aggregation
            };
            let (site, state) = SITES[i % SITES.len()];
            let prefix = match role {
                RouterRole::Core => "cr",
                RouterRole::Aggregation => "ar",
            };
            let name = format!("{prefix}{}.{site}", i / SITES.len() + 1);
            let slots = rng.gen_range(4..=14u8);
            let ports = rng.gen_range(2..=4u8);
            routers.push(Router {
                name,
                site: site.to_owned(),
                state: state.to_owned(),
                vendor: spec.vendor,
                role,
                loopback: loopbacks.alloc(),
                slots,
                ports_per_slot: ports,
                interfaces: vec![Interface {
                    name: "Loopback0".to_owned(),
                    slot: 0,
                    port: 0,
                    sub: None,
                    parent: None,
                    ip: None,
                    kind: IfaceKind::Loopback,
                }],
                controllers: Vec::new(),
                bundles: Vec::new(),
            });
            let lb = routers.last().unwrap().loopback;
            routers.last_mut().unwrap().interfaces[0].ip = Some(lb);
        }

        // Port cursor per router: next free (slot, port).
        let mut cursor: Vec<(u8, u8)> = vec![(0, 0); n];
        let mut links: Vec<Link> = Vec::new();

        let connect = |routers: &mut Vec<Router>,
                       cursor: &mut Vec<(u8, u8)>,
                       links: &mut Vec<Link>,
                       rng: &mut StdRng,
                       link_ips: &mut IpAllocator,
                       a: usize,
                       b: usize| {
            if a == b
                || links
                    .iter()
                    .any(|l| l.peer_of(a).map(|p| p.router) == Some(b))
            {
                return;
            }
            let ea = alloc_link_iface(&mut routers[a], &mut cursor[a], rng, link_ips);
            let eb = alloc_link_iface(&mut routers[b], &mut cursor[b], rng, link_ips);
            links.push(Link {
                a: EndPoint {
                    router: a,
                    iface: ea,
                },
                b: EndPoint {
                    router: b,
                    iface: eb,
                },
            });
        };

        // Core ring plus random chords.
        for i in 0..n_core {
            let j = (i + 1) % n_core;
            connect(
                &mut routers,
                &mut cursor,
                &mut links,
                &mut rng,
                &mut link_ips,
                i,
                j,
            );
        }
        for _ in 0..n_core / 2 {
            let i = rng.gen_range(0..n_core);
            let j = rng.gen_range(0..n_core);
            connect(
                &mut routers,
                &mut cursor,
                &mut links,
                &mut rng,
                &mut link_ips,
                i,
                j,
            );
        }
        // Aggregation routers dual-home to two cores.
        for i in n_core..n {
            let c1 = rng.gen_range(0..n_core);
            let c2 = (c1 + 1 + rng.gen_range(0..n_core.max(2) - 1)) % n_core;
            connect(
                &mut routers,
                &mut cursor,
                &mut links,
                &mut rng,
                &mut link_ips,
                i,
                c1,
            );
            connect(
                &mut routers,
                &mut cursor,
                &mut links,
                &mut rng,
                &mut link_ips,
                i,
                c2,
            );
        }

        // Controllers (V1): wrap each serial physical port in a controller.
        if spec.vendor == Vendor::V1 {
            for r in &mut routers {
                let mut by_port: std::collections::BTreeMap<(u8, u8), Vec<usize>> =
                    std::collections::BTreeMap::new();
                for (idx, ifc) in r.interfaces.iter().enumerate() {
                    if ifc.kind == IfaceKind::Serial && !ifc.is_logical() {
                        by_port.entry((ifc.slot, ifc.port)).or_default().push(idx);
                    }
                }
                for ((slot, port), children) in by_port {
                    let chan = (u32::from(slot) * 7 + u32::from(port) * 3) % 6;
                    r.controllers.push(Controller {
                        name: format!("T3 {slot}/{port}/{chan}"),
                        slot,
                        port,
                        children,
                    });
                }
            }
        }

        // A few multilink bundles on cores with >=2 physical serial ifaces.
        for r in routers.iter_mut().take(n_core) {
            let members: Vec<usize> = r
                .interfaces
                .iter()
                .enumerate()
                .filter(|(_, i)| i.kind == IfaceKind::Serial && !i.is_logical())
                .map(|(idx, _)| idx)
                .take(2)
                .collect();
            if members.len() == 2 && rng.gen_bool(0.5) {
                let ip = link_ips.alloc();
                r.bundles.push(Bundle {
                    name: "Multilink1".to_owned(),
                    members,
                    ip,
                });
            }
        }

        // BGP: iBGP mesh over cores (loopback-to-loopback) + VPN sessions on
        // aggregation routers toward their cores, with VRF ids.
        let mut bgp_sessions = Vec::new();
        for i in 0..n_core {
            for j in (i + 1)..n_core {
                bgp_sessions.push(BgpSession {
                    a: i,
                    b: j,
                    b_addr: routers[j].loopback,
                    a_addr: routers[i].loopback,
                    vrf: None,
                    link: None,
                });
            }
        }
        for (li, l) in links.iter().enumerate() {
            let (ra, rb) = (l.a.router, l.b.router);
            let agg_end = if routers[ra].role == RouterRole::Aggregation {
                Some((ra, rb))
            } else if routers[rb].role == RouterRole::Aggregation {
                Some((rb, ra))
            } else {
                None
            };
            if let Some((agg, core)) = agg_end {
                let vrf = format!("1000:{}", 1000 + rng.gen_range(0..400));
                let a_ep = if l.a.router == agg { l.a } else { l.b };
                let b_ep = if l.a.router == agg { l.b } else { l.a };
                let a_addr = routers[a_ep.router].interfaces[a_ep.iface].ip.unwrap();
                let b_addr = routers[b_ep.router].interfaces[b_ep.iface].ip.unwrap();
                bgp_sessions.push(BgpSession {
                    a: agg,
                    b: core,
                    b_addr,
                    a_addr,
                    vrf: Some(vrf),
                    link: Some(li),
                });
            }
        }

        let mut topo = Topology {
            routers,
            links,
            bgp_sessions,
            paths: Vec::new(),
            pim: Vec::new(),
        };

        // IPTV overlay: a PIM multicast tree spanning *all* routers (BFS
        // over the link graph from router 0), each tree edge protected by
        // a secondary 2-hop path through a third router where one exists.
        // One single-hop LSP is also created per physical link so MPLS
        // reroute events draw from a name pool of realistic cardinality.
        if spec.iptv {
            for (li, l) in topo.links.iter().enumerate() {
                let (a, b) = (l.a.router, l.b.router);
                let name = format!("LSP-{}-{}-pri", topo.routers[a].name, topo.routers[b].name);
                topo.paths.push(PathRoute {
                    name,
                    from: a,
                    to: b,
                    hops: vec![li],
                });
            }
            let n = topo.routers.len();
            let mut parent_of: Vec<Option<usize>> = vec![None; n];
            let mut visited = vec![false; n];
            visited[0] = true;
            let mut queue = std::collections::VecDeque::from([0usize]);
            while let Some(u) = queue.pop_front() {
                for l in &topo.links {
                    if let Some(peer) = l.peer_of(u) {
                        if !visited[peer.router] {
                            visited[peer.router] = true;
                            parent_of[peer.router] = Some(u);
                            queue.push_back(peer.router);
                        }
                    }
                }
            }
            for (i, p) in parent_of.iter().enumerate().take(n).skip(1) {
                let Some(parent) = *p else { continue };
                let Some(primary) = topo.link_between(parent, i) else {
                    continue;
                };
                // Secondary: parent -> x -> i for some x with both links.
                let mut secondary = None;
                let mut order: Vec<usize> = (0..n).collect();
                order.shuffle(&mut rng);
                for x in order {
                    if x == parent || x == i {
                        continue;
                    }
                    if let (Some(h1), Some(h2)) =
                        (topo.link_between(parent, x), topo.link_between(x, i))
                    {
                        secondary = Some(vec![h1, h2]);
                        break;
                    }
                }
                let hops = secondary.unwrap_or_else(|| vec![primary]);
                let name = format!(
                    "LSP-{}-{}-sec",
                    topo.routers[parent].name, topo.routers[i].name
                );
                topo.paths.push(PathRoute {
                    name,
                    from: parent,
                    to: i,
                    hops,
                });
                let secondary_path = topo.paths.len() - 1;
                topo.pim.push(PimAdjacency {
                    a: parent,
                    b: i,
                    primary_link: primary,
                    secondary_path,
                });
            }
        }
        topo
    }
}

/// Allocate a fresh L3 interface on the next free port of `r`, returning its
/// index. Serial ports get a channelized sub-interface (the link actually
/// terminates on the logical interface, like `Serial1/0.10/10:0`); ethernet
/// and V2 ports are used directly.
fn alloc_link_iface(
    r: &mut Router,
    cursor: &mut (u8, u8),
    rng: &mut StdRng,
    ips: &mut IpAllocator,
) -> usize {
    // Spread link interfaces across random (slot, port) positions so
    // slot/port tokens in syslog details have the cardinality real
    // chassis exhibit; a port can host multiple logical interfaces, so
    // collisions just stack another sub-interface. (The cursor parameter
    // is kept by callers for determinism bookkeeping but randomization
    // supersedes sequential allocation.)
    let _ = cursor;
    let slot = rng.gen_range(0..r.slots);
    let port = rng.gen_range(0..r.ports_per_slot);

    match r.vendor {
        Vendor::V1 => {
            let serial = rng.gen_bool(0.6);
            if serial {
                let phys_name = format!("Serial{slot}/{port}");
                let phys = match r.iface_by_name(&phys_name) {
                    Some(p) => p,
                    None => {
                        r.interfaces.push(Interface {
                            name: phys_name,
                            slot,
                            port,
                            sub: None,
                            parent: None,
                            ip: None,
                            kind: IfaceKind::Serial,
                        });
                        r.interfaces.len() - 1
                    }
                };
                let sub = (r
                    .interfaces
                    .iter()
                    .filter(|i| i.parent == Some(phys))
                    .count() as u16
                    + 1)
                    * 10;
                let chan = rng.gen_range(1..30u16);
                let name = format!("Serial{slot}/{port}.{sub}/{chan}:0");
                r.interfaces.push(Interface {
                    name,
                    slot,
                    port,
                    sub: Some(sub),
                    parent: Some(phys),
                    ip: Some(ips.alloc()),
                    kind: IfaceKind::Serial,
                });
                r.interfaces.len() - 1
            } else {
                let phys_name = format!("GigabitEthernet{slot}/{port}");
                match r.iface_by_name(&phys_name) {
                    Some(p) => {
                        // Port already used: stack a dot1q sub-interface.
                        let sub = (r.interfaces.iter().filter(|i| i.parent == Some(p)).count()
                            as u16
                            + 1)
                            * 100;
                        r.interfaces.push(Interface {
                            name: format!("GigabitEthernet{slot}/{port}.{sub}"),
                            slot,
                            port,
                            sub: Some(sub),
                            parent: Some(p),
                            ip: Some(ips.alloc()),
                            kind: IfaceKind::Ethernet,
                        });
                        r.interfaces.len() - 1
                    }
                    None => {
                        r.interfaces.push(Interface {
                            name: phys_name,
                            slot,
                            port,
                            sub: None,
                            parent: None,
                            ip: Some(ips.alloc()),
                            kind: IfaceKind::Ethernet,
                        });
                        r.interfaces.len() - 1
                    }
                }
            }
        }
        Vendor::V2 => {
            let chan = r
                .interfaces
                .iter()
                .filter(|i| i.slot == slot && i.port == port && i.kind == IfaceKind::PortV2)
                .count() as u16
                + 1;
            r.interfaces.push(Interface {
                name: format!("{slot}/{port}/{chan}"),
                slot,
                port,
                sub: Some(chan),
                parent: None,
                ip: Some(ips.alloc()),
                kind: IfaceKind::PortV2,
            });
            r.interfaces.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(vendor: Vendor, iptv: bool) -> TopoSpec {
        TopoSpec {
            n_routers: 24,
            vendor,
            iptv,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(&spec(Vendor::V1, false));
        let b = Topology::generate(&spec(Vendor::V1, false));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn every_router_is_linked() {
        let t = Topology::generate(&spec(Vendor::V1, false));
        for (i, r) in t.routers.iter().enumerate() {
            let deg = t.links.iter().filter(|l| l.peer_of(i).is_some()).count();
            assert!(deg >= 1, "router {} has no links", r.name);
        }
    }

    #[test]
    fn link_endpoints_have_ips_and_valid_indices() {
        let t = Topology::generate(&spec(Vendor::V1, false));
        for l in &t.links {
            for ep in [l.a, l.b] {
                let (r, ifc) = t.endpoint(ep);
                assert!(
                    ifc.ip.is_some(),
                    "link iface {} on {} lacks ip",
                    ifc.name,
                    r.name
                );
            }
        }
    }

    #[test]
    fn v1_subinterfaces_have_physical_parents() {
        let t = Topology::generate(&spec(Vendor::V1, false));
        for r in &t.routers {
            for ifc in &r.interfaces {
                if let Some(p) = ifc.parent {
                    let parent = &r.interfaces[p];
                    assert!(parent.parent.is_none(), "parent of {} is logical", ifc.name);
                    assert_eq!((parent.slot, parent.port), (ifc.slot, ifc.port));
                }
            }
        }
    }

    #[test]
    fn v1_controllers_wrap_serial_ports() {
        let t = Topology::generate(&spec(Vendor::V1, false));
        let with_controllers = t
            .routers
            .iter()
            .filter(|r| !r.controllers.is_empty())
            .count();
        assert!(with_controllers > 0);
        for r in &t.routers {
            for c in &r.controllers {
                assert!(!c.children.is_empty());
                for &ch in &c.children {
                    assert_eq!(r.interfaces[ch].kind, IfaceKind::Serial);
                    assert_eq!(
                        (r.interfaces[ch].slot, r.interfaces[ch].port),
                        (c.slot, c.port)
                    );
                }
            }
        }
    }

    #[test]
    fn v2_has_numeric_port_names_and_no_controllers() {
        let t = Topology::generate(&spec(Vendor::V2, false));
        for r in &t.routers {
            assert!(r.controllers.is_empty());
            for ifc in &r.interfaces {
                if ifc.kind == IfaceKind::PortV2 {
                    assert!(
                        ifc.name.matches('/').count() == 2,
                        "bad V2 name {}",
                        ifc.name
                    );
                }
            }
        }
    }

    #[test]
    fn bgp_sessions_connect_distinct_routers_with_vrfs_on_edges() {
        let t = Topology::generate(&spec(Vendor::V1, false));
        assert!(!t.bgp_sessions.is_empty());
        assert!(t.bgp_sessions.iter().any(|s| s.vrf.is_some()));
        for s in &t.bgp_sessions {
            assert_ne!(s.a, s.b);
            if let Some(v) = &s.vrf {
                assert!(v.starts_with("1000:"), "vrf format {v}");
            }
        }
    }

    #[test]
    fn iptv_overlay_builds_pim_tree_with_secondary_paths() {
        let t = Topology::generate(&spec(Vendor::V2, true));
        assert!(!t.pim.is_empty());
        for adj in &t.pim {
            let link = &t.links[adj.primary_link];
            assert!(link.peer_of(adj.a).is_some() && link.peer_of(adj.b).is_some());
            let path = &t.paths[adj.secondary_path];
            assert_eq!(path.from, adj.a);
            assert_eq!(path.to, adj.b);
            assert!(!path.hops.is_empty());
        }
    }

    #[test]
    fn interface_names_unique_per_router() {
        for vendor in [Vendor::V1, Vendor::V2] {
            let t = Topology::generate(&spec(vendor, false));
            for r in &t.routers {
                let mut names: Vec<&str> = r.interfaces.iter().map(|i| i.name.as_str()).collect();
                names.sort_unstable();
                let before = names.len();
                names.dedup();
                assert_eq!(before, names.len(), "duplicate iface names on {}", r.name);
            }
        }
    }

    #[test]
    fn router_names_embed_site_and_are_unique() {
        let t = Topology::generate(&spec(Vendor::V1, false));
        let mut names: Vec<&str> = t.routers.iter().map(|r| r.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        for r in &t.routers {
            assert!(r.name.ends_with(&format!(".{}", r.site)));
            assert!(!r.name.contains(' '));
        }
    }
}
