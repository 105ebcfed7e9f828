//! The location dictionary: every location each router knows, arranged in
//! the Figure 3 hierarchy, plus cross-router relationships (links, BGP
//! sessions, LSP paths) — all learned **only** from router configs.

use crate::names::{parse_iface_name, IfaceStruct};
use crate::parse::{parse_config, ParsedConfig};
use sd_model::{FxHashMap, FxHashSet, Interner, LocationId, LocationLevel, RouterId};
use serde::{Deserialize, Serialize};

/// Metadata of one location.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocationInfo {
    /// Owning router.
    pub(crate) router: RouterId,
    /// Hierarchy level.
    pub level: LocationLevel,
    /// Canonical name (`Serial1/0.10/10:0`, `slot 3`, `T3 1/0/0`, an LSP
    /// name, or the router name itself for the top node).
    pub name: String,
}

/// The learned dictionary. Canonical data is Vec-based (serde-friendly);
/// lookup maps are rebuilt via [`LocationDictionary::rebuild_index`].
/// Every map is keyed by config-derived names and ids, which messages only
/// look up, so they are Fx-hashed (see `sd_model::fxhash`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LocationDictionary {
    /// Router-name interner; `RouterId(i)` indexes it.
    pub routers: Interner,
    infos: Vec<LocationInfo>,
    parent: Vec<Option<u32>>,
    /// Bundle location -> member physical-interface locations.
    bundle_members: Vec<(u32, Vec<u32>)>,
    /// Symmetric link peers: pairs of interface locations.
    peers: Vec<(u32, u32)>,
    /// BGP sessions: (local router, neighbor address, optional vrf).
    sessions: Vec<(u32, String, Option<String>)>,
    /// Path location -> router ids along the path.
    path_members: Vec<(u32, Vec<u32>)>,
    /// Per-router state code (ticket matching granularity).
    states: Vec<String>,
    /// Per-router top location.
    router_loc: Vec<u32>,
    /// Interface address -> interface location.
    ip_entries: Vec<(String, u32)>,

    #[serde(skip)]
    by_name: Vec<FxHashMap<String, u32>>,
    #[serde(skip)]
    by_ip: FxHashMap<String, u32>,
    #[serde(skip)]
    by_slot: FxHashMap<(u32, u8), u32>,
    #[serde(skip)]
    by_path: FxHashMap<String, u32>,
    #[serde(skip)]
    peer_map: FxHashMap<u32, u32>,
    #[serde(skip)]
    bundle_map: FxHashMap<u32, Vec<u32>>,
    #[serde(skip)]
    adjacent: FxHashSet<(u32, u32)>,
}

/// Normalized unordered router-pair key.
fn key_pair(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl LocationDictionary {
    /// Build the dictionary from all router configs (two passes: per-router
    /// hierarchy first, then cross-router resolution).
    pub fn build(configs: &[String]) -> LocationDictionary {
        let parsed: Vec<ParsedConfig> = configs.iter().map(|c| parse_config(c)).collect();
        let mut d = LocationDictionary::default();

        // Pass 0: intern every hostname first so router ids are dense and
        // independent of cross-references (LSP paths may name routers whose
        // configs appear later).
        for cfg in &parsed {
            if !cfg.hostname.is_empty() {
                let rid = d.routers.intern(&cfg.hostname);
                let rloc = d.add(rid, LocationLevel::Router, cfg.hostname.clone(), None);
                debug_assert_eq!(d.router_loc.len(), rid as usize);
                d.router_loc.push(rloc);
                d.states.push(cfg.state.clone().unwrap_or_default());
            }
        }

        // Pass 1: per-router locations.
        let mut pending_links: Vec<(u32, String, String)> = Vec::new(); // (local loc, peer router, peer iface)
        for cfg in &parsed {
            if cfg.hostname.is_empty() {
                continue;
            }
            let rid = d.routers.intern(&cfg.hostname);
            let rloc = d.router_loc[rid as usize];

            for c in &cfg.controllers {
                // `T3 <slot>/<port>/<chan>`
                let Some(tail) = c.strip_prefix("T3 ") else {
                    continue;
                };
                let mut it = tail.split('/');
                let (Some(s), Some(p)) = (it.next(), it.next()) else {
                    continue;
                };
                let (Ok(slot), Ok(port)) = (s.parse::<u8>(), p.parse::<u8>()) else {
                    continue;
                };
                let slot_loc = d.slot_node(rid, rloc, slot);
                let port_loc = d.port_node(rid, slot_loc, slot, port);
                let loc = d.add(rid, LocationLevel::Port, c.clone(), Some(port_loc));
                d.by_name[rid as usize].insert(c.clone(), loc);
            }

            // Physical interfaces first (so logicals can find parents).
            for pass in 0..2 {
                for ifc in &cfg.interfaces {
                    let shape = parse_iface_name(&ifc.name);
                    let logical = matches!(
                        shape,
                        IfaceStruct::V1Serial { logical: true, .. }
                            | IfaceStruct::V1Ethernet { logical: true, .. }
                    ) || matches!(shape, IfaceStruct::Loopback)
                        || ifc.name == "system";
                    if (pass == 0) == logical {
                        continue;
                    }
                    let loc = match shape {
                        IfaceStruct::V1Serial {
                            slot,
                            port,
                            logical,
                        }
                        | IfaceStruct::V1Ethernet {
                            slot,
                            port,
                            logical,
                        } => {
                            let slot_loc = d.slot_node(rid, rloc, slot);
                            let port_loc = d.port_node(rid, slot_loc, slot, port);
                            if logical {
                                // Parent: the physical interface if
                                // configured, else the port node.
                                let phys_name = physical_prefix(&ifc.name);
                                let parent = d.by_name[rid as usize]
                                    .get(phys_name)
                                    .copied()
                                    .unwrap_or(port_loc);
                                d.add(
                                    rid,
                                    LocationLevel::LogInterface,
                                    ifc.name.clone(),
                                    Some(parent),
                                )
                            } else {
                                d.add(
                                    rid,
                                    LocationLevel::PhysInterface,
                                    ifc.name.clone(),
                                    Some(port_loc),
                                )
                            }
                        }
                        IfaceStruct::V2Port { slot, port } => {
                            let slot_loc = d.slot_node(rid, rloc, slot);
                            let port_loc = d.port_node(rid, slot_loc, slot, port);
                            d.add(
                                rid,
                                LocationLevel::PhysInterface,
                                ifc.name.clone(),
                                Some(port_loc),
                            )
                        }
                        IfaceStruct::Loopback => d.add(
                            rid,
                            LocationLevel::LogInterface,
                            ifc.name.clone(),
                            Some(rloc),
                        ),
                        IfaceStruct::Multilink => {
                            // Bundles arrive via cfg.bundles; skip here.
                            continue;
                        }
                        IfaceStruct::Other => {
                            if ifc.name == "system" {
                                d.add(
                                    rid,
                                    LocationLevel::LogInterface,
                                    "system".to_owned(),
                                    Some(rloc),
                                )
                            } else {
                                d.add(
                                    rid,
                                    LocationLevel::LogInterface,
                                    ifc.name.clone(),
                                    Some(rloc),
                                )
                            }
                        }
                    };
                    // `system` is too common a word to match in free text.
                    if ifc.name != "system" {
                        d.by_name[rid as usize].insert(ifc.name.clone(), loc);
                    }
                    if let Some(ip) = &ifc.ip {
                        d.ip_entries.push((ip.clone(), loc));
                    }
                    if let Some((pr, pi)) = &ifc.link_to {
                        pending_links.push((loc, pr.clone(), pi.clone()));
                    }
                }
            }

            for (bname, members) in &cfg.bundles {
                let bloc = d.add(rid, LocationLevel::Bundle, bname.clone(), Some(rloc));
                d.by_name[rid as usize].insert(bname.clone(), bloc);
                let member_locs: Vec<u32> = members
                    .iter()
                    .filter_map(|m| d.by_name[rid as usize].get(m).copied())
                    .collect();
                d.bundle_members.push((bloc, member_locs));
            }

            for (addr, vrf) in &cfg.bgp_neighbors {
                d.sessions.push((rid, addr.clone(), vrf.clone()));
            }

            for (name, routers) in &cfg.lsps {
                let ploc = d.add(rid, LocationLevel::Path, name.clone(), Some(rloc));
                let members: Vec<u32> = routers.iter().map(|r| d.routers.intern(r)).collect();
                // Note: intern may mint ids for routers whose configs come
                // later; router_loc/states grow in their own pass, so only
                // reference members by RouterId here.
                d.path_members.push((ploc, members));
            }
        }

        // Pass 2: resolve links (requires every router's by_name).
        for (loc, pr, pi) in pending_links {
            let Some(prid) = d.routers.get(&pr) else {
                continue;
            };
            let Some(&peer_loc) = d.by_name.get(prid as usize).and_then(|m| m.get(&pi)) else {
                continue;
            };
            if loc < peer_loc {
                d.peers.push((loc, peer_loc));
            }
        }
        // Guard: interning LSP member routers must not have outgrown the
        // per-router tables (configs should cover every named router).
        while d.router_loc.len() < d.routers.len() {
            // A router referenced but never configured: synthesize a bare
            // router-level location so lookups stay total.
            let rid = d.router_loc.len() as u32;
            let name = d.routers.resolve(rid).to_owned();
            let rloc = d.add(rid, LocationLevel::Router, name, None);
            d.router_loc.push(rloc);
            d.states.push(String::new());
        }
        d.rebuild_index();
        d
    }

    fn add(&mut self, router: u32, level: LocationLevel, name: String, parent: Option<u32>) -> u32 {
        let id = self.infos.len() as u32;
        self.infos.push(LocationInfo {
            router: RouterId(router),
            level,
            name,
        });
        self.parent.push(parent);
        while self.by_name.len() <= router as usize {
            self.by_name.push(FxHashMap::default());
        }
        id
    }

    fn slot_node(&mut self, rid: u32, rloc: u32, slot: u8) -> u32 {
        if let Some(&l) = self.by_slot.get(&(rid, slot)) {
            return l;
        }
        let l = self.add(rid, LocationLevel::Slot, format!("slot {slot}"), Some(rloc));
        self.by_slot.insert((rid, slot), l);
        l
    }

    fn port_node(&mut self, rid: u32, slot_loc: u32, slot: u8, port: u8) -> u32 {
        let name = format!("port {slot}/{port}");
        if let Some(&l) = self.by_name[rid as usize].get(&name) {
            return l;
        }
        let l = self.add(rid, LocationLevel::Port, name.clone(), Some(slot_loc));
        self.by_name[rid as usize].insert(name, l);
        l
    }

    /// Rebuild all lookup maps (after deserialization).
    pub fn rebuild_index(&mut self) {
        self.routers.rebuild_index();
        self.by_ip = self.ip_entries.iter().cloned().collect();
        self.by_path = self
            .infos
            .iter()
            .enumerate()
            .filter(|(_, i)| i.level == LocationLevel::Path)
            .map(|(id, i)| (i.name.clone(), id as u32))
            .collect();
        self.peer_map = self
            .peers
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        self.bundle_map = self.bundle_members.iter().cloned().collect();
        self.adjacent = self
            .peers
            .iter()
            .map(|&(x, y)| {
                key_pair(
                    self.infos[x as usize].router.0,
                    self.infos[y as usize].router.0,
                )
            })
            .collect();
        // by_name / by_slot:
        self.by_name = vec![FxHashMap::default(); self.routers.len()];
        self.by_slot = FxHashMap::default();
        for (id, info) in self.infos.iter().enumerate() {
            let rid = info.router.0;
            match info.level {
                LocationLevel::Slot => {
                    if let Some(n) = info.name.strip_prefix("slot ") {
                        if let Ok(s) = n.parse::<u8>() {
                            self.by_slot.insert((rid, s), id as u32);
                        }
                    }
                }
                LocationLevel::Router => {}
                _ => {
                    if info.name != "system" {
                        self.by_name[rid as usize].insert(info.name.clone(), id as u32);
                    }
                }
            }
        }
    }

    // ---- queries ------------------------------------------------------

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Info for a location.
    pub fn info(&self, loc: LocationId) -> &LocationInfo {
        &self.infos[loc.0 as usize]
    }

    /// The owning router of a location.
    pub fn router_of(&self, loc: LocationId) -> RouterId {
        self.infos[loc.0 as usize].router
    }

    /// The router-level location of a router.
    pub fn router_location(&self, r: RouterId) -> LocationId {
        LocationId(self.router_loc[r.0 as usize])
    }

    /// The state code of a router (empty when unknown).
    pub fn state_of(&self, r: RouterId) -> &str {
        &self.states[r.0 as usize]
    }

    /// Look up a router by name.
    pub fn router_id(&self, name: &str) -> Option<RouterId> {
        self.routers.get(name).map(RouterId)
    }

    /// Look up a location by `(router, name)`.
    pub fn by_name(&self, r: RouterId, name: &str) -> Option<LocationId> {
        self.by_name
            .get(r.0 as usize)?
            .get(name)
            .copied()
            .map(LocationId)
    }

    /// Look up a slot node.
    pub(crate) fn slot(&self, r: RouterId, slot: u8) -> Option<LocationId> {
        self.by_slot.get(&(r.0, slot)).copied().map(LocationId)
    }

    /// Look up the interface that owns an address.
    pub(crate) fn by_ip(&self, ip: &str) -> Option<LocationId> {
        self.by_ip.get(ip).copied().map(LocationId)
    }

    /// Look up an LSP path location by name.
    pub fn path(&self, name: &str) -> Option<LocationId> {
        self.by_path.get(name).copied().map(LocationId)
    }

    /// The far-end interface of a link, if `loc` terminates one.
    pub fn link_peer(&self, loc: LocationId) -> Option<LocationId> {
        self.peer_map.get(&loc.0).copied().map(LocationId)
    }

    /// Routers along a path location.
    pub fn path_routers(&self, loc: LocationId) -> Option<&[u32]> {
        self.path_members
            .iter()
            .find(|(p, _)| *p == loc.0)
            .map(|(_, m)| m.as_slice())
    }

    /// Walk `loc` and its ancestors up to the router node (inclusive).
    pub fn ancestors(&self, loc: LocationId) -> Vec<LocationId> {
        self.chain(loc).collect()
    }

    /// [`LocationDictionary::ancestors`] as an iterator over the parent
    /// chain: the hot relatedness queries walk it without allocating.
    fn chain(&self, loc: LocationId) -> impl Iterator<Item = LocationId> + '_ {
        std::iter::successors(Some(loc), |l| {
            self.parent
                .get(l.0 as usize)
                .copied()
                .flatten()
                .map(LocationId)
        })
    }

    /// §4.2 spatial matching: true when one location maps up the hierarchy
    /// to the other (equality included). A bundle additionally contains its
    /// member interfaces and their children.
    pub fn spatially_match(&self, a: LocationId, b: LocationId) -> bool {
        if a == b {
            return true;
        }
        if self.router_of(a) != self.router_of(b) {
            return false;
        }
        if self.chain(a).any(|x| x == b) || self.chain(b).any(|x| x == a) {
            return true;
        }
        // Bundle containment: bundle matches anything that maps up to a
        // member physical interface.
        [(a, b), (b, a)].into_iter().any(|(bundle, other)| {
            self.bundle_map
                .get(&bundle.0)
                .is_some_and(|ms| self.chain(other).any(|x| ms.contains(&x.0)))
        })
    }

    /// Cross-router relatedness (§4.2.3): equal locations (shared path or
    /// remote reference), link-peer interfaces (or descendants thereof),
    /// or two router-level locations whose routers share a link/session —
    /// the paper's "two ends of one link, two ends of one BGP session".
    pub fn cross_router_related(&self, a: LocationId, b: LocationId) -> bool {
        if a == b {
            return true;
        }
        // Link peers, including children of the linked interfaces.
        for x in self.chain(a) {
            if let Some(p) = self.link_peer(x) {
                if self.chain(b).any(|y| y == p) {
                    return true;
                }
            }
        }
        // Router-scoped messages (service/chassis level) relate when the
        // two routers are directly connected.
        if self.info(a).level == LocationLevel::Router
            && self.info(b).level == LocationLevel::Router
        {
            return self.routers_adjacent(self.router_of(a), self.router_of(b));
        }
        false
    }

    /// Whether two routers terminate a common link.
    pub(crate) fn routers_adjacent(&self, a: RouterId, b: RouterId) -> bool {
        self.adjacent.contains(&key_pair(a.0, b.0))
    }
}

/// `Serial1/0.10/10:0` → `Serial1/0`; `GigabitEthernet2/1.100` →
/// `GigabitEthernet2/1`.
fn physical_prefix(name: &str) -> &str {
    match name.find('.') {
        Some(i) => &name[..i],
        None => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dict() -> LocationDictionary {
        let cfg_a = "\
hostname r1
site nyc state NY
!
controller T3 1/0/0
!
interface Loopback0
 ip address 10.255.0.1 255.255.255.255
!
interface Serial1/0
 no ip address
!
interface Serial1/0.10/10:0
 ip address 10.0.0.1 255.255.255.252
 description link to r2 Serial1/0.20/20:0
!
interface Multilink1
 multilink-group member Serial1/0
!
router bgp 65000
 neighbor 10.255.0.2 remote-as 65000
!
mpls lsp LSP-r1-r2-sec to r2 path r1 r3 r2
";
        let cfg_b = "\
hostname r2
site chi state IL
!
interface Loopback0
 ip address 10.255.0.2 255.255.255.255
!
interface Serial1/0
 no ip address
!
interface Serial1/0.20/20:0
 ip address 10.0.0.2 255.255.255.252
 description link to r1 Serial1/0.10/10:0
!
";
        LocationDictionary::build(&[cfg_a.to_owned(), cfg_b.to_owned()])
    }

    /// `spatially_match` as it was before it walked the parent chain in
    /// place: the reference the allocation-free version must agree with.
    fn spatially_match_reference(d: &LocationDictionary, a: LocationId, b: LocationId) -> bool {
        if a == b {
            return true;
        }
        if d.router_of(a) != d.router_of(b) {
            return false;
        }
        let anc_a = d.ancestors(a);
        if anc_a.contains(&b) {
            return true;
        }
        let anc_b = d.ancestors(b);
        if anc_b.contains(&a) {
            return true;
        }
        for (bundle, members) in [(a, &anc_b), (b, &anc_a)] {
            if let Some(ms) = d.bundle_map.get(&bundle.0) {
                if members.iter().any(|x| ms.contains(&x.0)) {
                    return true;
                }
            }
        }
        false
    }

    /// `cross_router_related` as it was, over collected ancestor lists.
    fn cross_router_related_reference(
        d: &LocationDictionary,
        a: LocationId,
        b: LocationId,
    ) -> bool {
        if a == b {
            return true;
        }
        let anc_b = d.ancestors(b);
        for x in d.ancestors(a) {
            if let Some(p) = d.link_peer(x) {
                if anc_b.contains(&p) {
                    return true;
                }
            }
        }
        if d.info(a).level == LocationLevel::Router && d.info(b).level == LocationLevel::Router {
            return d.routers_adjacent(d.router_of(a), d.router_of(b));
        }
        false
    }

    #[test]
    fn chain_walks_equal_ancestor_lists_on_generated_networks() {
        use sd_netsim::{TopoSpec, Topology};
        for (vendor, seed) in [(sd_model::Vendor::V1, 3), (sd_model::Vendor::V2, 5)] {
            let topo = Topology::generate(&TopoSpec {
                n_routers: 8,
                vendor,
                iptv: vendor == sd_model::Vendor::V2,
                seed,
            });
            let d = LocationDictionary::build(&sd_netsim::config::render_all(&topo));
            if vendor == sd_model::Vendor::V1 {
                assert!(!d.bundle_map.is_empty(), "V1 networks carry bundles");
            }
            let locs: Vec<LocationId> = (0..d.len() as u32).map(LocationId).collect();
            let (mut matched, mut related) = (0usize, 0usize);
            for &a in &locs {
                for &b in &locs {
                    let m = d.spatially_match(a, b);
                    assert_eq!(m, spatially_match_reference(&d, a, b), "spatial {a},{b}");
                    let r = d.cross_router_related(a, b);
                    assert_eq!(r, cross_router_related_reference(&d, a, b), "cross {a},{b}");
                    matched += usize::from(m && a != b);
                    related += usize::from(r && a != b);
                }
            }
            assert!(
                matched > 0 && related > 0,
                "the network exercises both relations"
            );
        }
    }

    #[test]
    fn hierarchy_is_built() {
        let d = sample_dict();
        let r1 = d.router_id("r1").unwrap();
        let sub = d.by_name(r1, "Serial1/0.10/10:0").unwrap();
        assert_eq!(d.info(sub).level, LocationLevel::LogInterface);
        let chain: Vec<LocationLevel> = d.ancestors(sub).iter().map(|l| d.info(*l).level).collect();
        assert_eq!(
            chain,
            vec![
                LocationLevel::LogInterface,
                LocationLevel::PhysInterface,
                LocationLevel::Port,
                LocationLevel::Slot,
                LocationLevel::Router,
            ]
        );
    }

    #[test]
    fn spatial_matching_follows_paper_example() {
        let d = sample_dict();
        let r1 = d.router_id("r1").unwrap();
        // "one message on slot 1 and another on interface Serial1/0.10/10:0
        // are spatially matched" (paper's slot-2 example, adapted).
        let slot = d.slot(r1, 1).unwrap();
        let sub = d.by_name(r1, "Serial1/0.10/10:0").unwrap();
        assert!(d.spatially_match(slot, sub));
        assert!(d.spatially_match(sub, slot));
        // Router node matches everything on the router.
        assert!(d.spatially_match(d.router_location(r1), sub));
        // Different routers never spatially match.
        let r2 = d.router_id("r2").unwrap();
        let sub2 = d.by_name(r2, "Serial1/0.20/20:0").unwrap();
        assert!(!d.spatially_match(sub, sub2));
    }

    #[test]
    fn bundles_contain_members() {
        let d = sample_dict();
        let r1 = d.router_id("r1").unwrap();
        let bundle = d.by_name(r1, "Multilink1").unwrap();
        let phys = d.by_name(r1, "Serial1/0").unwrap();
        let sub = d.by_name(r1, "Serial1/0.10/10:0").unwrap();
        assert_eq!(d.info(bundle).level, LocationLevel::Bundle);
        assert!(d.spatially_match(bundle, phys));
        assert!(
            d.spatially_match(sub, bundle),
            "bundle contains member's children"
        );
    }

    #[test]
    fn links_connect_both_ends() {
        let d = sample_dict();
        let r1 = d.router_id("r1").unwrap();
        let r2 = d.router_id("r2").unwrap();
        let a = d.by_name(r1, "Serial1/0.10/10:0").unwrap();
        let b = d.by_name(r2, "Serial1/0.20/20:0").unwrap();
        assert_eq!(d.link_peer(a), Some(b));
        assert_eq!(d.link_peer(b), Some(a));
        assert!(d.cross_router_related(a, b));
        assert!(!d.cross_router_related(a, d.by_name(r2, "Loopback0").unwrap()));
    }

    #[test]
    fn ip_lookup_resolves_remote_interfaces() {
        let d = sample_dict();
        let r2 = d.router_id("r2").unwrap();
        let lb2 = d.by_name(r2, "Loopback0").unwrap();
        assert_eq!(d.by_ip("10.255.0.2"), Some(lb2));
        assert_eq!(d.by_ip("8.8.8.8"), None);
    }

    #[test]
    fn paths_know_their_routers() {
        let d = sample_dict();
        let p = d.path("LSP-r1-r2-sec").unwrap();
        assert_eq!(d.info(p).level, LocationLevel::Path);
        let members = d.path_routers(p).unwrap();
        assert_eq!(members.len(), 3);
        // r3 was never configured but must still resolve to a router.
        let r3 = d.router_id("r3").unwrap();
        assert!(members.contains(&r3.0));
        assert_eq!(d.info(d.router_location(r3)).level, LocationLevel::Router);
    }

    #[test]
    fn states_are_recorded() {
        let d = sample_dict();
        assert_eq!(d.state_of(d.router_id("r1").unwrap()), "NY");
        assert_eq!(d.state_of(d.router_id("r2").unwrap()), "IL");
    }

    #[test]
    fn serde_roundtrip_preserves_lookups() {
        let d = sample_dict();
        let json = serde_json::to_string(&d).unwrap();
        let mut back: LocationDictionary = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        let r1 = back.router_id("r1").unwrap();
        let sub = back.by_name(r1, "Serial1/0.10/10:0").unwrap();
        assert_eq!(back.info(sub).level, LocationLevel::LogInterface);
        assert!(back.link_peer(sub).is_some());
        assert_eq!(back.by_ip("10.255.0.1"), back.by_name(r1, "Loopback0"));
    }
}
