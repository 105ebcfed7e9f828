//! Ground-truth network events and their syslog cascades.
//!
//! Each simulated network condition (a flapping link, an unstable
//! controller, a dual-failure PIM outage, …) emits the multi-template,
//! multi-router message cascade that SyslogDigest is supposed to fold back
//! into *one* event. Every emitted message carries the event's ground-truth
//! id, giving the reproduction a quantitative grouping oracle the original
//! paper lacked (it validated by expert inspection).

use crate::grammar::{Grammar, VarKind};
use crate::topology::{BgpSession, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use sd_model::{GroundTruthId, RawMessage, Timestamp};
use serde::{Deserialize, Serialize};

/// Username pool for config sessions, login events and noise. Large enough
/// that the template learner sees usernames as a variable field.
pub(crate) const USERS: &[&str] = &[
    "jsmith",
    "ops1",
    "neteng",
    "autoconf",
    "svcmon",
    "root",
    "admin",
    "test",
    "oracle",
    "backup",
    "rancid",
    "nagios",
    "tacacs",
    "mwhite",
    "pgarcia",
    "dkim",
    "ajones",
    "tlee",
    "bchen",
    "rpatel",
    "noc1",
    "noc2",
    "noc3",
    "fieldtech",
    "vendor1",
    "audit",
    "secops",
    "provision",
    "cronuser",
    "labuser",
];

fn pick_user(rng: &mut StdRng) -> &'static str {
    USERS[rng.gen_range(0..USERS.len())]
}

/// The kind of a ground-truth event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A link flapping repeatedly (both ends, layers 1–3). Vendor V1.
    LinkFlap,
    /// An unstable channelized controller (Figure 4). Vendor V1.
    ControllerFlap,
    /// A BGP session reset and re-establishment. Vendor V1.
    BgpSessionReset,
    /// CPU utilization threshold crossing. Vendor V1.
    CpuSpike,
    /// A linecard crash taking down all its interfaces. Vendor V1.
    LineCardCrash,
    /// Environmental alarm (temperature). Vendor V1.
    EnvAlarm,
    /// An operator configuration session. Vendor V1.
    ConfigSession,
    /// Periodic TCP MD5 bad-authentication wave (Figure 5). Vendor V1.
    TcpBadAuthWave,
    /// A V2 port flapping with SAP updates. Vendor V2.
    PortFlap,
    /// The §6.1 dual-failure PIM neighbor loss cascade. Vendor V2.
    PimNeighborLoss,
    /// An MPLS fast-reroute protection switch. Vendor V2.
    MplsReroute,
    /// Correlated ftp/ssh login-failure wave. Vendor V2.
    LoginFailureWave,
    /// Service oper-state flapping. Vendor V2.
    SvcFlap,
    /// Chassis card failure. Vendor V2.
    CardFail,
}

impl EventKind {
    /// A short operator-facing label (the "event type" a domain expert
    /// would assign in §4.2.4 presentation).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::LinkFlap => "link flap, line protocol flap",
            EventKind::ControllerFlap => "controller flap",
            EventKind::BgpSessionReset => "bgp session reset",
            EventKind::CpuSpike => "cpu threshold",
            EventKind::LineCardCrash => "linecard failure",
            EventKind::EnvAlarm => "environmental alarm",
            EventKind::ConfigSession => "config session",
            EventKind::TcpBadAuthWave => "tcp bad authentication wave",
            EventKind::PortFlap => "port flap, sap update",
            EventKind::PimNeighborLoss => "pim neighbor loss (dual failure)",
            EventKind::MplsReroute => "mpls protection switch",
            EventKind::LoginFailureWave => "login failure wave",
            EventKind::SvcFlap => "service flap",
            EventKind::CardFail => "chassis card failure",
        }
    }

    /// Baseline operational importance in [0, 1] used to derive trouble
    /// tickets (higher = more likely to be ticketed).
    pub(crate) fn base_importance(self) -> f64 {
        match self {
            EventKind::PimNeighborLoss => 1.0,
            EventKind::LineCardCrash | EventKind::CardFail => 0.9,
            EventKind::LinkFlap | EventKind::PortFlap => 0.7,
            EventKind::ControllerFlap => 0.65,
            EventKind::BgpSessionReset | EventKind::MplsReroute | EventKind::SvcFlap => 0.6,
            EventKind::EnvAlarm => 0.5,
            EventKind::CpuSpike => 0.4,
            EventKind::TcpBadAuthWave | EventKind::LoginFailureWave => 0.3,
            EventKind::ConfigSession => 0.1,
        }
    }
}

/// A ground-truth event recorded by the simulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GtEvent {
    /// Unique id; messages reference it via `RawMessage::gt_event`.
    pub id: GroundTruthId,
    /// Event kind.
    pub kind: EventKind,
    /// First message timestamp.
    pub start: Timestamp,
    /// Last message timestamp.
    pub end: Timestamp,
    /// Indices of involved routers in the topology.
    pub routers: Vec<usize>,
    /// Number of syslog messages the event emitted.
    pub(crate) n_messages: usize,
    /// Importance in [0, 1] (kind baseline scaled by size), for tickets.
    pub importance: f64,
}

/// The event a cascade has opened: its id and the span and count of the
/// messages it has emitted so far.
struct OpenEvent {
    id: GroundTruthId,
    start: Timestamp,
    end: Timestamp,
    n: usize,
}

/// Emits event cascades into a message buffer.
pub struct EventSim<'a> {
    /// The network.
    pub(crate) topo: &'a Topology,
    /// The vendor grammar (must match the network's vendor).
    pub(crate) grammar: &'a Grammar,
    /// All emitted messages (unsorted; callers sort once at the end).
    pub msgs: Vec<RawMessage>,
    /// All recorded ground-truth events.
    pub events: Vec<GtEvent>,
    next_id: GroundTruthId,
    /// The event being emitted; `None` between cascades, where messages
    /// are background noise.
    open: Option<OpenEvent>,
    /// Where [`EventSim::emit`] renders each detail, reused across lines.
    detail: String,
}

impl<'a> EventSim<'a> {
    /// New simulator over `topo` speaking `grammar`.
    pub fn new(topo: &'a Topology, grammar: &'a Grammar) -> Self {
        EventSim {
            topo,
            grammar,
            msgs: Vec::new(),
            events: Vec::new(),
            next_id: 1,
            open: None,
            detail: String::new(),
        }
    }

    /// The one emission path: render template `key` with `vals` (one per
    /// variable slot, in slot order) and push it as sent by `router` at
    /// `ts`, tagged with the open event, whose span and count it extends.
    fn emit(&mut self, ts: Timestamp, router: usize, key: &str, vals: &[&str]) {
        let t = self.grammar.get(key);
        let mut it = vals.iter();
        let missing = || panic!("missing value for {key}");
        t.render_into(&mut self.detail, |_| *it.next().unwrap_or_else(missing));
        assert!(it.next().is_none(), "extra var values for {key}");
        let gt_event = self.open.as_mut().map(|ev| {
            ev.start = ev.start.min(ts);
            ev.end = ev.end.max(ts);
            ev.n += 1;
            ev.id
        });
        let mut m = RawMessage::new(ts, &self.topo.routers[router].name, &t.code, &self.detail);
        m.gt_event = gt_event;
        self.msgs.push(m);
    }

    /// Open a new ground-truth event: every message emitted until
    /// [`EventSim::finish`] carries its id.
    fn begin(&mut self) {
        self.open = Some(OpenEvent {
            id: self.next_id,
            start: Timestamp(i64::MAX),
            end: Timestamp(i64::MIN),
            n: 0,
        });
        self.next_id += 1;
    }

    /// Close the open event and record it (if it emitted anything) with
    /// the routers it `involved`.
    fn finish(&mut self, kind: EventKind, involved: impl IntoIterator<Item = usize>) {
        let Some(ev) = self.open.take().filter(|ev| ev.n > 0) else {
            return;
        };
        let importance = (kind.base_importance() * (1.0 + (ev.n as f64).ln() / 10.0)).min(1.0);
        let mut routers: Vec<usize> = involved.into_iter().collect();
        routers.sort_unstable();
        routers.dedup();
        self.events.push(GtEvent {
            id: ev.id,
            kind,
            start: ev.start,
            end: ev.end,
            routers,
            n_messages: ev.n,
            importance,
        });
    }

    /// Link-flap cascade on `link_idx` starting at `start`: `n_flaps`
    /// down/up cycles with slowly drifting inter-flap gaps around
    /// `base_gap` seconds; OSPF adjacencies follow each flap, and a BGP
    /// session riding the link goes down once with a 60–120 s hold-timer
    /// lag (the source of dataset A's wide-window association rules).
    pub fn link_flap(
        &mut self,
        rng: &mut StdRng,
        link_idx: usize,
        start: Timestamp,
        n_flaps: usize,
        base_gap: f64,
    ) {
        self.begin();
        let topo = self.topo;
        let link = &topo.links[link_idx];
        // Each end with the address of the OSPF neighbor it loses.
        let ends = [(link.a, link.b), (link.b, link.a)].map(|(me, peer)| {
            let ip = topo.endpoint(peer).1.ip;
            let peer_ip = ip.map(|ip| ip.to_string()).unwrap_or_default();
            (me.router, topo.endpoint(me).1.name.as_str(), peer_ip)
        });
        let with_ospf = rng.gen_bool(0.6);
        let bgp = topo
            .bgp_sessions
            .iter()
            .find(|s| s.link == Some(link_idx) && rng.gen_bool(0.8));

        let mut gap = base_gap.max(60.0);
        let mut t = start;
        let mut last = start;
        for flap in 0..n_flaps.max(1) {
            let down_dur = rng.gen_range(2..12);
            for (r, name, peer_ip) in &ends {
                self.emit(t, *r, "LINK_DOWN", &[name]);
                self.emit(t.plus(1), *r, "LINEPROTO_DOWN", &[name]);
                if with_ospf {
                    self.emit(t.plus(2), *r, "OSPF_DOWN", &[peer_ip, name]);
                }
            }
            let up = t.plus(down_dur);
            for (r, name, peer_ip) in &ends {
                self.emit(up, *r, "LINK_UP", &[name]);
                self.emit(up.plus(1), *r, "LINEPROTO_UP", &[name]);
                if with_ospf {
                    self.emit(up.plus(3), *r, "OSPF_UP", &[peer_ip, name]);
                }
            }
            last = up.plus(3);
            if flap == 0 {
                if let Some(s) = bgp {
                    let hold = rng.gen_range(60..120);
                    let vrf = session_vrf(s);
                    let (a_addr, b_addr) = (s.a_addr.to_string(), s.b_addr.to_string());
                    self.emit(t.plus(hold), s.a, "BGP_DOWN_IFFLAP", &[&b_addr, vrf]);
                    self.emit(t.plus(hold + 1), s.b, "BGP_DOWN_RECV", &[&a_addr, vrf]);
                }
            }
            // Cycle spacing drifts slowly (EWMA-friendly) in a band whose
            // spread keeps the up=>next-down lag from clearing Confmin at
            // any W in the Figure 7 grid; cross-template rules come from
            // the within-cycle lags (proto +1 s, OSPF +2 s, BGP hold
            // 60-120 s) — hence dataset A's saturation near W = 120 s.
            // Occasional early re-flaps punish a large EWMA alpha.
            gap = (gap * rng.gen_range(0.9..1.12)).clamp(60.0, 1500.0);
            let jitter = if rng.gen_bool(0.12) {
                rng.gen_range(0.2..0.5)
            } else {
                1.0
            };
            t = t.plus(((gap * jitter) as i64).max(15) + down_dur);
        }
        if let Some(s) = bgp {
            let vrf = session_vrf(s);
            let (a_addr, b_addr) = (s.a_addr.to_string(), s.b_addr.to_string());
            let at = last.plus(rng.gen_range(30..90));
            self.emit(at, s.a, "BGP_UP", &[&b_addr, vrf]);
            let at = last.plus(rng.gen_range(30..90));
            self.emit(at, s.b, "BGP_UP", &[&a_addr, vrf]);
        }
        self.finish(EventKind::LinkFlap, [link.a.router, link.b.router]);
    }

    /// Controller instability (Figure 4): clustered controller up/down
    /// cycles; child serial interfaces follow 10–30 s later (the lag the
    /// paper observes when growing the rule window from 10 to 30 s).
    pub(crate) fn controller_flap(
        &mut self,
        rng: &mut StdRng,
        router: usize,
        ctl_idx: usize,
        start: Timestamp,
        n_cycles: usize,
    ) {
        self.begin();
        let topo = self.topo;
        let rt = &topo.routers[router];
        let ctl = &rt.controllers[ctl_idx];
        let ctl_tail = ctl.name.trim_start_matches("T3 ");
        // Affected interfaces: logical children of the controller's ports.
        let mut child_ifaces: Vec<&str> = Vec::new();
        for &phys in &ctl.children {
            for ifc in &rt.interfaces {
                if ifc.parent == Some(phys) {
                    child_ifaces.push(&ifc.name);
                }
            }
        }
        let ends = iface_ends(topo, router, &child_ifaces);

        let mut t = start;
        for _ in 0..n_cycles.max(1) {
            self.emit(t, router, "CONTROLLER_DOWN", &[ctl_tail]);
            let lag = rng.gen_range(10..30);
            for &(r, ifn) in &ends {
                self.emit(t.plus(lag), r, "LINK_DOWN", &[ifn]);
                self.emit(t.plus(lag + 1), r, "LINEPROTO_DOWN", &[ifn]);
            }
            let dur = rng.gen_range(5..40);
            self.emit(t.plus(lag + dur), router, "CONTROLLER_UP", &[ctl_tail]);
            for &(r, ifn) in &ends {
                self.emit(t.plus(lag + dur + 2), r, "LINK_UP", &[ifn]);
                self.emit(t.plus(lag + dur + 3), r, "LINEPROTO_UP", &[ifn]);
            }
            let cluster_gap = rng.gen_range(400..1200);
            t = t.plus(lag + dur + cluster_gap);
        }
        let involved = ends.iter().map(|e| e.0);
        self.finish(EventKind::ControllerFlap, involved.chain([router]));
    }

    /// A BGP session reset: notification sent on one side, received on the
    /// other, session re-established after the hold time.
    pub(crate) fn bgp_session_reset(&mut self, rng: &mut StdRng, session: usize, start: Timestamp) {
        self.begin();
        let s = &self.topo.bgp_sessions[session];
        let vrf = session_vrf(s);
        // Each side names the address it uses to reach the other.
        let (a_side, b_side) = ((s.a, s.b_addr.to_string()), (s.b, s.a_addr.to_string()));
        let ((snd, snd_peer), (rcv, rcv_peer)) = if rng.gen_bool(0.5) {
            (a_side, b_side)
        } else {
            (b_side, a_side)
        };
        let (sent, received) = if rng.gen_bool(0.5) {
            ("BGP_DOWN_SENT", "BGP_DOWN_RECV")
        } else {
            ("BGP_DOWN_CLOSED", "BGP_DOWN_CLOSED")
        };
        self.emit(start, snd, sent, &[&snd_peer, vrf]);
        self.emit(start.plus(1), rcv, received, &[&rcv_peer, vrf]);
        let re = start.plus(rng.gen_range(30..115));
        self.emit(re, snd, "BGP_UP", &[&snd_peer, vrf]);
        self.emit(re.plus(1), rcv, "BGP_UP", &[&rcv_peer, vrf]);
        self.finish(EventKind::BgpSessionReset, [s.a, s.b]);
    }

    /// CPU spike: rising threshold, optional re-alarms, falling threshold.
    /// When `after_config` is set the spike follows a config session —
    /// a correlation that exists only while the workload schedules it,
    /// exercising weekly rule deletion.
    pub(crate) fn cpu_spike(
        &mut self,
        rng: &mut StdRng,
        router: usize,
        start: Timestamp,
        after_config: bool,
    ) {
        self.begin();
        let mut t = start;
        if after_config {
            let user = pick_user(rng);
            let src = format!("192.168.200.{}", rng.gen_range(2..250));
            self.emit(t, router, "CONFIG_I", &[user, &src]);
            t = t.plus(rng.gen_range(10..60));
        }
        let pct = rng.gen_range(85..99).to_string();
        let pidlist = format!(
            "{}/{}%, {}/{}%, {}/{}%",
            rng.gen_range(1..300),
            rng.gen_range(50..80),
            rng.gen_range(1..300),
            rng.gen_range(2..20),
            rng.gen_range(1..300),
            rng.gen_range(1..9)
        );
        self.emit(t, router, "CPU_RISE", &[&pct, &pidlist]);
        let dur = rng.gen_range(45..110);
        let fall = rng.gen_range(20..40).to_string();
        self.emit(t.plus(dur), router, "CPU_FALL", &[&fall]);
        self.finish(EventKind::CpuSpike, [router]);
    }

    /// Linecard crash: card down, every interface on the slot (and the
    /// far end of every affected link) goes down; recovery after a while.
    pub(crate) fn linecard_crash(&mut self, rng: &mut StdRng, router: usize, start: Timestamp) {
        self.begin();
        let topo = self.topo;
        let (slot, affected) = failed_slot(rng, topo, router);
        let ends = iface_ends(topo, router, &affected);
        self.emit(start, router, "LC_FAIL", &[&slot]);
        for &(r, ifn) in &ends {
            self.emit(start.plus(2), r, "LINK_DOWN", &[ifn]);
            self.emit(start.plus(3), r, "LINEPROTO_DOWN", &[ifn]);
        }
        let up = start.plus(rng.gen_range(120..600));
        self.emit(up, router, "LC_UP", &[&slot]);
        for &(r, ifn) in &ends {
            self.emit(up.plus(4), r, "LINK_UP", &[ifn]);
            self.emit(up.plus(5), r, "LINEPROTO_UP", &[ifn]);
        }
        let involved = ends.iter().map(|e| e.0);
        self.finish(EventKind::LineCardCrash, involved.chain([router]));
    }

    /// Environmental temperature alarm repeating every ~60 s while hot;
    /// the failed fan tray that caused it alarms a few seconds in and
    /// clears at the end (the temp<->fan association only enters the rule
    /// base once this event kind activates, driving Figure 8's week-2+
    /// additions).
    pub(crate) fn env_alarm(&mut self, rng: &mut StdRng, router: usize, start: Timestamp) {
        self.begin();
        let slot = rng
            .gen_range(0..self.topo.routers[router].slots)
            .to_string();
        let tray = rng.gen_range(0..6).to_string();
        let n = rng.gen_range(2..8);
        let mut t = start;
        for i in 0..n {
            let temp = rng.gen_range(70..95).to_string();
            self.emit(t, router, "ENV_TEMP", &[&slot, &temp]);
            if i == 0 {
                self.emit(t.plus(rng.gen_range(5..25)), router, "FAN_FAIL", &[&tray]);
            }
            t = t.plus(rng.gen_range(55..70));
        }
        self.emit(t, router, "FAN_OK", &[&tray]);
        self.finish(EventKind::EnvAlarm, [router]);
    }

    /// Operator configuration session: a handful of CONFIG_I messages.
    pub(crate) fn config_session(&mut self, rng: &mut StdRng, router: usize, start: Timestamp) {
        self.begin();
        let user = pick_user(rng);
        let src = format!("192.168.200.{}", rng.gen_range(2..250));
        let n = rng.gen_range(1..5);
        let mut t = start;
        for _ in 0..n {
            self.emit(t, router, "CONFIG_I", &[user, &src]);
            t = t.plus(rng.gen_range(30..300));
        }
        self.finish(EventKind::ConfigSession, [router]);
    }

    /// Periodic TCP MD5 bad-auth messages (Figure 5): fixed period with
    /// small jitter, lasting hours — the canonical temporal-grouping case.
    pub(crate) fn tcp_badauth_wave(&mut self, rng: &mut StdRng, router: usize, start: Timestamp) {
        self.begin();
        let period = rng.gen_range(240..360);
        let n = rng.gen_range(20..60);
        let attacker = format!("172.16.{}.{}", rng.gen_range(0..255), rng.gen_range(1..254));
        let local = self.topo.routers[router].loopback.to_string();
        let mut t = start;
        for _ in 0..n {
            let port = rng.gen_range(1024..65000).to_string();
            self.emit(t, router, "TCP_BADAUTH", &[&attacker, &port, &local, "179"]);
            // The scanner also trips an ACL moments later — a correlation
            // that only exists once this event kind activates (week 3),
            // so the tcp<->acl rule is a Figure 8 late addition.
            let at = t.plus(rng.gen_range(5..20));
            let acl = rng.gen_range(100..200).to_string();
            let port = rng.gen_range(1024..65000).to_string();
            self.emit(at, router, "ACL_DENY", &[&acl, &attacker, &local, &port]);
            t = t.plus(period + rng.gen_range(0..8));
        }
        self.finish(EventKind::TcpBadAuthWave, [router]);
    }

    /// V2 port flap: linkDown/linkup plus SAP state processing 5–40 s later
    /// (the lag behind dataset B's rule-window saturation at W ≈ 40 s).
    pub(crate) fn port_flap(
        &mut self,
        rng: &mut StdRng,
        link_idx: usize,
        start: Timestamp,
        n_flaps: usize,
    ) {
        self.begin();
        let ends = link_ends(self.topo, link_idx);
        let mut gap: f64 = rng.gen_range(80.0..350.0);
        let mut t = start;
        let svc = rng.gen_range(100..999).to_string();
        let with_svc = rng.gen_bool(0.6);
        let mut last_up = start;
        for flap in 0..n_flaps.max(1) {
            // SAP processing lags linkDown by 5-35 s (the rule-window
            // signal of §5.2.2); the port comes back a little after that,
            // inside dataset B's W = 40 s so down/SAP/up associate.
            let sap_lag = rng.gen_range(5..35);
            let down_dur = sap_lag + rng.gen_range(2..5);
            for &(r, name) in &ends {
                self.emit(t, r, "SNMP_LINKDOWN", &[name]);
                self.emit(t.plus(sap_lag), r, "SAP_CHANGE", &[name]);
                // Services ride the SAPs: the first flap takes the service
                // oper-state down on both ends (router-scoped messages, the
                // reason port flaps page people).
                if with_svc && flap == 0 {
                    self.emit(t.plus(sap_lag + 1), r, "SVC_DOWN", &[&svc]);
                }
            }
            let up = t.plus(down_dur);
            for &(r, name) in &ends {
                self.emit(up, r, "SNMP_LINKUP", &[name]);
            }
            last_up = up;
            // Same principle as link_flap: cycle spacing spread wide
            // enough that no up=>next-down rule clears Confmin on the W
            // grid; B's learnable lags are the within-cycle down/SAP/up
            // ones (<= 40 s), hence saturation near W = 40 s.
            gap = (gap * rng.gen_range(0.9..1.12)).clamp(60.0, 1500.0);
            let jitter = if rng.gen_bool(0.12) {
                rng.gen_range(0.2..0.5)
            } else {
                1.0
            };
            t = up.plus(((gap * jitter) as i64).max(15));
        }
        if with_svc {
            for &(r, _) in &ends {
                self.emit(last_up.plus(2), r, "SVC_UP", &[&svc]);
            }
        }
        self.finish(EventKind::PortFlap, ends.map(|e| e.0));
    }

    /// The §6.1 case: the secondary protection path of a PIM adjacency has
    /// silently failed (LSP down, setup retries every ~5 minutes); when the
    /// primary link later fails, fast-reroute has nowhere to go and the PIM
    /// neighbor session — which dual protection should have preserved —
    /// drops, with fallout on every router along both paths.
    pub fn pim_neighbor_loss(&mut self, rng: &mut StdRng, adj_idx: usize, start: Timestamp) {
        self.begin();
        let topo = self.topo;
        let adj = &topo.pim[adj_idx];
        let path = &topo.paths[adj.secondary_path];
        let lsp = path.name.as_str();
        let head = path.from;

        // Phase 1: secondary path broken, retrying every ~5 min.
        self.emit(start, head, "LSP_DOWN", &[lsp]);
        let retries = rng.gen_range(12..30);
        let mut t = start.plus(300);
        for i in 0..retries {
            self.emit(t, head, "LSP_RETRY", &[lsp, &(i + 1).to_string()]);
            t = t.plus(295 + rng.gen_range(0..10));
        }

        // Phase 2: primary link fails mid-retry; FRR fires but the
        // secondary is down, so the PIM session drops.
        let fail = start.plus(300 * (retries as i64 / 2));
        let plink = link_ends(topo, adj.primary_link);
        for &(r, name) in &plink {
            self.emit(fail, r, "SNMP_LINKDOWN", &[name]);
            self.emit(fail.plus(rng.gen_range(5..30)), r, "SAP_CHANGE", &[name]);
        }
        self.emit(fail.plus(1), head, "FRR_SWITCH", &[lsp]);
        self.emit(fail.plus(1), head, "RSVP_V2", &[lsp]);
        for &(r, _) in &plink {
            self.emit(fail.plus(1), r, "RSVP_V2", &[lsp]);
        }
        let (ra, rb) = (adj.a, adj.b);
        let a_ip = topo.routers[ra].loopback.to_string();
        let b_ip = topo.routers[rb].loopback.to_string();
        let (a_if, b_if) = (plink[0].1, plink[1].1);
        self.emit(fail.plus(2), ra, "PIM_NBR_LOSS", &[&b_ip, a_if]);
        self.emit(fail.plus(2), rb, "PIM_NBR_LOSS", &[&a_ip, b_if]);
        // Fallout along the secondary path's hop routers.
        let mut cur = path.from;
        let hop_routers: Vec<usize> = path
            .hops
            .iter()
            .filter_map(|&h| {
                cur = topo.links[h].peer_of(cur)?.router;
                Some(cur)
            })
            .collect();
        for &r in &hop_routers {
            let at = fail.plus(rng.gen_range(3..15));
            self.emit(at, r, "SVC_DOWN", &[&rng.gen_range(100..999).to_string()]);
            let vrf = format!("1000:{}", 1000 + rng.gen_range(0..400));
            let at = fail.plus(rng.gen_range(3..20));
            self.emit(at, r, "BGP_BWT", &[&a_ip, &vrf]);
        }

        // Phase 3: recovery.
        let rec = fail.plus(rng.gen_range(300..1800));
        for &(r, name) in &plink {
            self.emit(rec, r, "SNMP_LINKUP", &[name]);
        }
        self.emit(rec.plus(2), ra, "PIM_NBR_UP", &[&b_ip, a_if]);
        self.emit(rec.plus(2), rb, "PIM_NBR_UP", &[&a_ip, b_if]);
        self.emit(rec.plus(5), head, "LSP_UP", &[lsp]);
        self.emit(rec.plus(6), head, "FRR_REVERT", &[lsp]);
        for &r in &hop_routers {
            let at = rec.plus(rng.gen_range(5..20));
            self.emit(at, r, "SVC_UP", &[&rng.gen_range(100..999).to_string()]);
        }
        let involved = [ra, rb, head].into_iter().chain(hop_routers);
        self.finish(EventKind::PimNeighborLoss, involved);
    }

    /// A successful MPLS FRR protection switch (no PIM impact): one hop of
    /// the protected path flaps, traffic shifts to secondary and reverts.
    /// RSVP path-error notifications propagate along the LSP, so the
    /// head-end and the failing hop both log messages naming the LSP —
    /// the shared path location that lets cross-router grouping stitch
    /// the head-end's view to the hop's link flap.
    pub(crate) fn mpls_reroute(&mut self, rng: &mut StdRng, path_idx: usize, start: Timestamp) {
        self.begin();
        let topo = self.topo;
        let path = &topo.paths[path_idx];
        let lsp = path.name.as_str();
        let head = path.from;
        let hop = path.hops[rng.gen_range(0..path.hops.len())];
        let ends = link_ends(topo, hop);
        for &(r, name) in &ends {
            self.emit(start, r, "SNMP_LINKDOWN", &[name]);
            self.emit(start.plus(1), r, "RSVP_V2", &[lsp]);
            self.emit(start.plus(rng.gen_range(5..35)), r, "SAP_CHANGE", &[name]);
        }
        self.emit(start.plus(1), head, "RSVP_V2", &[lsp]);
        self.emit(start.plus(1), head, "FRR_SWITCH", &[lsp]);
        let rec = start.plus(rng.gen_range(60..600));
        for &(r, name) in &ends {
            self.emit(rec, r, "SNMP_LINKUP", &[name]);
        }
        self.emit(rec.plus(2), head, "FRR_REVERT", &[lsp]);
        self.finish(EventKind::MplsReroute, [head, ends[0].0, ends[1].0]);
    }

    /// Correlated ftp/ssh login-failure wave from one scanner, ssh trailing
    /// ftp by 30–40 s (dataset B's W = 30–40 s rule in §5.2.2).
    pub(crate) fn login_failure_wave(&mut self, rng: &mut StdRng, router: usize, start: Timestamp) {
        self.begin();
        let scanner = format!("203.0.{}.{}", rng.gen_range(0..255), rng.gen_range(1..254));
        let user = pick_user(rng);
        let n = rng.gen_range(3..12);
        let mut t = start;
        for _ in 0..n {
            self.emit(t, router, "FTP_FAIL", &[user, &scanner]);
            let lag = rng.gen_range(30..40);
            self.emit(t.plus(lag), router, "SSH_FAIL", &[user, &scanner]);
            t = t.plus(lag + rng.gen_range(400..900));
        }
        self.finish(EventKind::LoginFailureWave, [router]);
    }

    /// Service oper-state flapping on one V2 router. With `with_video` the
    /// flaps are accompanied by video-gap alarms ~10–25 s later — a
    /// correlation the dataset-B workload schedules only during its first
    /// weeks, so the corresponding learned rule is later *deleted* by the
    /// weekly update (Figure 9).
    pub(crate) fn svc_flap(
        &mut self,
        rng: &mut StdRng,
        router: usize,
        start: Timestamp,
        with_video: bool,
    ) {
        self.begin();
        let svc = rng.gen_range(100..999).to_string();
        let n = rng.gen_range(2..10);
        let mut t = start;
        for _ in 0..n {
            self.emit(t, router, "SVC_DOWN", &[&svc]);
            if with_video {
                let at = t.plus(rng.gen_range(10..25));
                let group = format!("232.0.{}.{}", rng.gen_range(0..16), rng.gen_range(1..254));
                let ms = rng.gen_range(40..4000).to_string();
                self.emit(at, router, "VIDEO_GAP", &[&group, &ms]);
            }
            let dur = rng.gen_range(26..39);
            self.emit(t.plus(dur), router, "SVC_UP", &[&svc]);
            t = t.plus(dur + rng.gen_range(400..1200));
        }
        self.finish(EventKind::SvcFlap, [router]);
    }

    /// V2 chassis card failure: card down, its ports down (and link peers),
    /// recovery later.
    pub(crate) fn card_fail(&mut self, rng: &mut StdRng, router: usize, start: Timestamp) {
        self.begin();
        let topo = self.topo;
        let (slot, affected) = failed_slot(rng, topo, router);
        let ends = iface_ends(topo, router, &affected);
        let (own, peers) = ends.split_at(affected.len());
        self.emit(start, router, "CARD_FAIL", &[&slot]);
        for &(_, ifn) in own {
            self.emit(start.plus(2), router, "SNMP_LINKDOWN", &[ifn]);
            let at = start.plus(rng.gen_range(7..40));
            self.emit(at, router, "SAP_CHANGE", &[ifn]);
        }
        for &(pr, pifn) in peers {
            self.emit(start.plus(2), pr, "SNMP_LINKDOWN", &[pifn]);
        }
        let up = start.plus(rng.gen_range(180..900));
        self.emit(up, router, "CARD_UP", &[&slot]);
        for &(r, ifn) in &ends {
            self.emit(up.plus(3), r, "SNMP_LINKUP", &[ifn]);
        }
        let involved = ends.iter().map(|e| e.0);
        self.finish(EventKind::CardFail, involved.chain([router]));
    }

    /// Emit a periodic timer series of template `key` on `router`: the
    /// same network element alarming every `period` seconds (±5 % jitter)
    /// for `duration` seconds. Values are frozen per series — a stuck
    /// sensor or timer re-reports the *same* location — which is what
    /// makes such chatter both frequent in history (high `f_m`) and
    /// trivially compressible by temporal grouping.
    pub(crate) fn timer_noise(
        &mut self,
        rng: &mut StdRng,
        router: usize,
        key: &str,
        period: i64,
        start: Timestamp,
        duration: i64,
    ) {
        let vals = self.noise_values(rng, router, key);
        let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
        let mut ts = start.plus(rng.gen_range(0..period.max(1)));
        let end = start.plus(duration);
        let jitter = (period / 20).max(1);
        while ts < end {
            self.emit(ts, router, key, &vals);
            ts = ts.plus(period + rng.gen_range(-jitter..=jitter));
        }
    }

    /// Emit a short burst of `n` background messages of the same template
    /// with frozen values (a scanner retrying, an ACL hit repeating),
    /// 5-40 s apart. Bursts keep noise *volume* realistic while temporal
    /// grouping still folds each one into a single group.
    pub(crate) fn background_burst(
        &mut self,
        rng: &mut StdRng,
        router: usize,
        key: &str,
        ts: Timestamp,
        n: usize,
    ) {
        let vals = self.noise_values(rng, router, key);
        let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
        let mut cur = ts;
        for _ in 0..n.max(1) {
            self.emit(cur, router, key, &vals);
            cur = cur.plus(rng.gen_range(5..40));
        }
    }

    /// Emit one background-noise instance of `tmpl` at `ts` on `router`,
    /// synthesizing plausible values for each variable slot.
    pub fn background(&mut self, rng: &mut StdRng, router: usize, key: &str, ts: Timestamp) {
        let vals = self.noise_values(rng, router, key);
        let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
        self.emit(ts, router, key, &vals);
    }

    /// One plausible value per variable slot of template `key` on
    /// `router`, in slot order: the values a noise series keeps frozen.
    fn noise_values(&self, rng: &mut StdRng, router: usize, key: &str) -> Vec<String> {
        let vars = self.grammar.get(key).vars();
        vars.into_iter()
            .map(|k| self.random_value(rng, router, k))
            .collect()
    }

    /// Synthesize a plausible value for a variable slot on `router`:
    /// interface names come from the router's real interfaces (so location
    /// extraction has something to verify), IPs mix internal and external.
    fn random_value(&self, rng: &mut StdRng, router: usize, kind: VarKind) -> String {
        let r = &self.topo.routers[router];
        match kind {
            VarKind::Iface => {
                let with_ip: Vec<&str> = r
                    .interfaces
                    .iter()
                    .filter(|i| i.ip.is_some())
                    .map(|i| i.name.as_str())
                    .collect();
                with_ip[rng.gen_range(0..with_ip.len())].to_owned()
            }
            VarKind::Controller => {
                if r.controllers.is_empty() {
                    format!("{}/{}/0", rng.gen_range(0..4), rng.gen_range(0..4))
                } else {
                    let c = &r.controllers[rng.gen_range(0..r.controllers.len())];
                    c.name.trim_start_matches("T3 ").to_owned()
                }
            }
            VarKind::Ip => {
                if rng.gen_bool(0.5) {
                    let other = &self.topo.routers[rng.gen_range(0..self.topo.routers.len())];
                    other.loopback.to_string()
                } else {
                    format!(
                        "{}.{}.{}.{}",
                        rng.gen_range(11..223),
                        rng.gen_range(0..255),
                        rng.gen_range(0..255),
                        rng.gen_range(1..254)
                    )
                }
            }
            VarKind::Vrf => format!("1000:{}", 1000 + rng.gen_range(0..400)),
            VarKind::Percent => rng.gen_range(1..100).to_string(),
            VarKind::Num => rng.gen_range(0..10_000).to_string(),
            VarKind::User => pick_user(rng).to_owned(),
            VarKind::PortNum => rng.gen_range(1..65_000).to_string(),
            VarKind::Name => {
                if rng.gen_bool(0.5) {
                    self.topo.routers[rng.gen_range(0..self.topo.routers.len())]
                        .name
                        .clone()
                } else if !self.topo.paths.is_empty() {
                    self.topo.paths[rng.gen_range(0..self.topo.paths.len())]
                        .name
                        .clone()
                } else {
                    format!("obj{}", rng.gen_range(0..500))
                }
            }
            VarKind::PidList => format!(
                "{}/{}%, {}/{}%, {}/{}%",
                rng.gen_range(1..300),
                rng.gen_range(30..90),
                rng.gen_range(1..300),
                rng.gen_range(2..20),
                rng.gen_range(1..300),
                rng.gen_range(1..9)
            ),
        }
    }
}

/// A session's VRF as it appears in its messages (`1000:1000` for plain
/// iBGP).
fn session_vrf(s: &BgpSession) -> &str {
    s.vrf.as_deref().unwrap_or("1000:1000")
}

/// Both ends of link `link_idx` as `(router index, interface name)`.
fn link_ends(topo: &Topology, link_idx: usize) -> [(usize, &str); 2] {
    let link = &topo.links[link_idx];
    [link.a, link.b].map(|ep| (ep.router, topo.endpoint(ep).1.name.as_str()))
}

/// A random L3 slot of `router` (slot 1 when it has none) as text, with
/// the names of that slot's L3 interfaces.
fn failed_slot<'t>(rng: &mut StdRng, topo: &'t Topology, router: usize) -> (String, Vec<&'t str>) {
    let r = &topo.routers[router];
    let mut slots: Vec<u8> = r
        .interfaces
        .iter()
        .filter(|i| i.ip.is_some() && i.slot > 0)
        .map(|i| i.slot)
        .collect();
    slots.sort_unstable();
    slots.dedup();
    let slot = if slots.is_empty() {
        1
    } else {
        slots[rng.gen_range(0..slots.len())]
    };
    let affected = r
        .interfaces
        .iter()
        .filter(|i| i.slot == slot && i.ip.is_some())
        .map(|i| i.name.as_str())
        .collect();
    (slot.to_string(), affected)
}

/// The named interfaces of `router` as `(router index, interface name)`,
/// followed by the far end of every link one of them terminates.
fn iface_ends<'t>(topo: &'t Topology, router: usize, ifaces: &[&'t str]) -> Vec<(usize, &'t str)> {
    let mut out: Vec<(usize, &str)> = ifaces.iter().map(|&i| (router, i)).collect();
    for l in &topo.links {
        for (me, peer) in [(l.a, l.b), (l.b, l.a)] {
            if me.router != router {
                continue;
            }
            let name = &topo.routers[me.router].interfaces[me.iface].name;
            if ifaces.contains(&name.as_str()) {
                out.push((peer.router, topo.endpoint(peer).1.name.as_str()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopoSpec;
    use rand::SeedableRng;
    use sd_model::Vendor;

    fn setup(vendor: Vendor, iptv: bool) -> (Topology, Grammar) {
        let topo = Topology::generate(&TopoSpec {
            n_routers: 16,
            vendor,
            iptv,
            seed: 11,
        });
        let grammar = Grammar::for_vendor(vendor);
        (topo, grammar)
    }

    #[test]
    fn link_flap_emits_mirrored_cascade() {
        let (topo, g) = setup(Vendor::V1, false);
        let mut sim = EventSim::new(&topo, &g);
        let mut rng = StdRng::seed_from_u64(1);
        let t0 = Timestamp::from_ymd_hms(2010, 1, 10, 0, 0, 0);
        sim.link_flap(&mut rng, 0, t0, 4, 10.0);
        assert_eq!(sim.events.len(), 1);
        let ev = &sim.events[0];
        assert_eq!(ev.kind, EventKind::LinkFlap);
        assert_eq!(ev.routers.len(), 2);
        assert!(ev.n_messages >= 4 * 2 * 4, "got {}", ev.n_messages);
        // Every message is tagged and within the event window.
        for m in &sim.msgs {
            assert_eq!(m.gt_event, Some(ev.id));
            assert!(m.ts >= ev.start && m.ts <= ev.end);
        }
        // Both ends emit LINK and LINEPROTO.
        let routers: std::collections::HashSet<&str> =
            sim.msgs.iter().map(|m| m.router()).collect();
        assert_eq!(routers.len(), 2);
        assert!(sim.msgs.iter().any(|m| m.code() == "LINK-3-UPDOWN"));
        assert!(sim.msgs.iter().any(|m| m.code() == "LINEPROTO-5-UPDOWN"));
    }

    #[test]
    fn controller_flap_cascades_with_lag() {
        let (topo, g) = setup(Vendor::V1, false);
        let router = topo
            .routers
            .iter()
            .position(|r| {
                r.controllers.iter().any(|c| {
                    c.children.iter().any(|&ch| {
                        topo.routers
                            .iter()
                            .position(|x| std::ptr::eq(x, r))
                            .is_some_and(|ri| {
                                topo.links.iter().any(|l| {
                                    [l.a, l.b].iter().any(|e| {
                                        e.router == ri
                                            && topo.routers[ri].interfaces[e.iface].parent
                                                == Some(ch)
                                    })
                                })
                            })
                    })
                })
            })
            .expect("some controller with linked children");
        let ctl = topo.routers[router]
            .controllers
            .iter()
            .position(|c| !c.children.is_empty())
            .unwrap();
        let mut sim = EventSim::new(&topo, &g);
        let mut rng = StdRng::seed_from_u64(2);
        sim.controller_flap(&mut rng, router, ctl, Timestamp(0), 3);
        let down_ctl: Vec<_> = sim
            .msgs
            .iter()
            .filter(|m| m.code() == "CONTROLLER-5-UPDOWN" && m.detail().contains("down"))
            .collect();
        assert_eq!(down_ctl.len(), 3);
        // Child link messages trail the controller drop by 10..30 s.
        let first_ctl = down_ctl[0].ts;
        let first_link = sim
            .msgs
            .iter()
            .filter(|m| m.code() == "LINK-3-UPDOWN")
            .map(|m| m.ts)
            .min();
        if let Some(fl) = first_link {
            let lag = fl.seconds_since(first_ctl);
            assert!((10..=30).contains(&lag), "lag {lag}");
        }
    }

    #[test]
    fn pim_dual_failure_spans_many_routers_and_codes() {
        let (topo, g) = setup(Vendor::V2, true);
        let mut sim = EventSim::new(&topo, &g);
        let mut rng = StdRng::seed_from_u64(3);
        sim.pim_neighbor_loss(&mut rng, 0, Timestamp(0));
        let ev = &sim.events[0];
        assert_eq!(ev.kind, EventKind::PimNeighborLoss);
        assert!(ev.routers.len() >= 3, "routers {:?}", ev.routers);
        let codes: std::collections::HashSet<&str> = sim.msgs.iter().map(|m| m.code()).collect();
        assert!(codes.len() >= 6, "distinct codes {}", codes.len());
        assert!(codes.contains("PIM-WARNING-pimNeighborLoss"));
        assert!(codes.contains("MPLS-MINOR-lspPathRetry"));
        // Retries are ~5 minutes apart.
        let retries: Vec<Timestamp> = sim
            .msgs
            .iter()
            .filter(|m| m.code() == "MPLS-MINOR-lspPathRetry")
            .map(|m| m.ts)
            .collect();
        assert!(retries.len() >= 10);
        for w in retries.windows(2) {
            let gap = w[1].seconds_since(w[0]);
            assert!((290..=310).contains(&gap), "retry gap {gap}");
        }
    }

    #[test]
    fn login_wave_pairs_ftp_then_ssh() {
        let (topo, g) = setup(Vendor::V2, false);
        let mut sim = EventSim::new(&topo, &g);
        let mut rng = StdRng::seed_from_u64(4);
        sim.login_failure_wave(&mut rng, 0, Timestamp(0));
        let mut sorted = sim.msgs.clone();
        sd_model::sort_batch(&mut sorted);
        let ftp: Vec<_> = sorted.iter().filter(|m| m.code().contains("ftp")).collect();
        let ssh: Vec<_> = sorted.iter().filter(|m| m.code().contains("ssh")).collect();
        assert_eq!(ftp.len(), ssh.len());
        for (f, s) in ftp.iter().zip(&ssh) {
            let lag = s.ts.seconds_since(f.ts);
            assert!((30..40).contains(&lag), "lag {lag}");
        }
    }

    #[test]
    fn background_messages_use_real_interface_names() {
        let (topo, g) = setup(Vendor::V1, false);
        let mut sim = EventSim::new(&topo, &g);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            sim.background(&mut rng, 2, "SERIAL_CRC", Timestamp(100));
        }
        let r = &topo.routers[2];
        for m in &sim.msgs {
            assert_eq!(m.gt_event, None);
            // Detail embeds one of the router's real interface names.
            assert!(
                r.interfaces.iter().any(|i| m.detail().contains(&i.name)),
                "no real iface in {:?}",
                m.detail()
            );
        }
    }

    #[test]
    fn tcp_wave_is_periodic() {
        let (topo, g) = setup(Vendor::V1, false);
        let mut sim = EventSim::new(&topo, &g);
        let mut rng = StdRng::seed_from_u64(6);
        sim.tcp_badauth_wave(&mut rng, 1, Timestamp(0));
        let ts: Vec<Timestamp> = sim
            .msgs
            .iter()
            .filter(|m| m.code() == "TCP-6-BADAUTH")
            .map(|m| m.ts)
            .collect();
        assert!(ts.len() >= 20);
        let gaps: Vec<i64> = ts.windows(2).map(|w| w[1].seconds_since(w[0])).collect();
        let mean = gaps.iter().sum::<i64>() as f64 / gaps.len() as f64;
        for g in &gaps {
            assert!((*g as f64 - mean).abs() < 20.0, "gap {g} vs mean {mean}");
        }
    }

    #[test]
    fn events_importance_in_unit_range() {
        let (topo, g) = setup(Vendor::V1, false);
        let mut sim = EventSim::new(&topo, &g);
        let mut rng = StdRng::seed_from_u64(7);
        sim.link_flap(&mut rng, 0, Timestamp(0), 30, 20.0);
        sim.cpu_spike(&mut rng, 0, Timestamp(5000), true);
        sim.env_alarm(&mut rng, 1, Timestamp(9000));
        for ev in &sim.events {
            assert!(ev.importance > 0.0 && ev.importance <= 1.0);
            assert!(ev.start <= ev.end);
            assert!(ev.n_messages > 0);
        }
    }
}
