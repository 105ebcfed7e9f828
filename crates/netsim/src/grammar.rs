//! The ground-truth message grammar.
//!
//! Every syslog message the simulator can emit is an instance of a
//! [`GrammarTemplate`]: an error code plus a sequence of literal words and
//! typed variable slots. The grammar is the single source of truth —
//! the event simulator renders messages *through* it, and the §5.2.1
//! template-accuracy experiment compares the templates learned by
//! `sd-templates` against the grammar's masked forms ("ground truth
//! obtained from hard-coding comprehensive domain knowledge" in the paper).
//!
//! Variable slots are high-cardinality fields (interface names, IPs, VRF
//! ids, counters…). Low-cardinality words such as `down`/`up` or the BGP
//! teardown reasons of Table 4 are *literals*: the paper treats each of
//! those as a distinct sub-type.

use sd_model::{ErrorCode, RawMessage, Timestamp, Vendor};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Marker string that arms the poison hook in the digest core
/// (`syslogdigest::set_poison_marker`): any message whose detail
/// contains this substring makes augmentation panic, exercising the
/// panic-isolation and quarantine paths. Kept deliberately outside the
/// vocabulary of every grammar template so armed runs over normal
/// corpora are unaffected.
pub const POISON_MARKER: &str = "XPOISON-TRIGGERX";

/// A syntactically ordinary message whose detail carries
/// [`POISON_MARKER`]: it parses, round-trips through
/// `RawMessage::to_line`, and — when the poison hook is armed — panics
/// the augmentation stage that touches it.
pub fn poison_message(ts: Timestamp, router: &str) -> RawMessage {
    RawMessage::new(
        ts,
        router,
        ErrorCode::from("SYS-2-INJECTED"),
        format!("diagnostic marker {POISON_MARKER} present"),
    )
}

/// The type of a variable slot in a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VarKind {
    /// An interface name (`Serial1/0.10/10:0`, `GigabitEthernet2/1`, `1/1/2`).
    Iface,
    /// A controller name tail, e.g. the `1/0/0` of `T3 1/0/0` (the `T3` is a literal).
    Controller,
    /// A dotted-quad IPv4 address.
    Ip,
    /// A VRF id, e.g. `1000:1001`.
    Vrf,
    /// A percentage number (no `%` sign — suffixes carry punctuation).
    Percent,
    /// A small integer (slot numbers, retry counters…).
    Num,
    /// A username.
    User,
    /// A TCP/UDP port number.
    PortNum,
    /// A router or LSP name.
    Name,
    /// The `Pid/Util` top-3 process list, rendered as exactly three tokens.
    PidList,
}

impl VarKind {
    /// How many whitespace tokens an instance of this slot renders to.
    pub(crate) fn token_count(self) -> usize {
        match self {
            VarKind::PidList => 3,
            _ => 1,
        }
    }
}

/// One element of a template's detail text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Part {
    /// A literal whitespace-delimited word.
    Lit(String),
    /// A token containing one or more variable slots with constant glue
    /// text around them (e.g. `{ip}:{port}` or `({ip})`). `texts` has one
    /// more element than `kinds`; the token renders as
    /// `texts[0] + v0 + texts[1] + v1 + … + texts[n]`.
    Var {
        /// Slot types, in token order.
        kinds: Vec<VarKind>,
        /// Constant glue around/between the slots.
        texts: Vec<String>,
    },
}

/// A message template: error code + detail pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrammarTemplate {
    /// Stable key used by event emitters to fetch this template.
    pub(crate) key: &'static str,
    /// The message type / error code.
    pub code: ErrorCode,
    /// Detail pattern.
    pub(crate) parts: Vec<Part>,
    /// Vendor whose routers emit this.
    pub(crate) vendor: Vendor,
    /// Relative rate of *background* (event-less) emissions of this
    /// template; 0 for templates only produced by simulated events.
    pub(crate) tail_rate: f64,
}

impl GrammarTemplate {
    /// Render the detail text, pulling a value for each variable slot from
    /// `supply` (called in slot order).
    pub fn render<S: AsRef<str>>(&self, supply: impl FnMut(VarKind) -> S) -> String {
        let mut out = String::new();
        self.render_into(&mut out, supply);
        out
    }

    /// [`render`](Self::render) into `out`, which is cleared first, so a
    /// caller that keeps one buffer renders without allocating.
    pub fn render_into<S: AsRef<str>>(
        &self,
        out: &mut String,
        mut supply: impl FnMut(VarKind) -> S,
    ) {
        out.clear();
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match p {
                Part::Lit(w) => out.push_str(w),
                Part::Var { kinds, texts } => {
                    out.push_str(&texts[0]);
                    for (k, glue) in kinds.iter().zip(&texts[1..]) {
                        out.push_str(supply(*k).as_ref());
                        out.push_str(glue);
                    }
                }
            }
        }
    }

    /// The masked ground-truth form: `<code> w1 w2 * w4 …`. A token
    /// containing any variable slot masks to `*` (one star per rendered
    /// token — the multi-token process list masks to three).
    pub(crate) fn masked(&self) -> String {
        let mut words: Vec<&str> = vec![self.code.as_str()];
        for p in &self.parts {
            match p {
                Part::Lit(w) => words.push(w),
                Part::Var { kinds, .. } => {
                    let n: usize = if kinds.len() == 1 {
                        kinds[0].token_count()
                    } else {
                        1
                    };
                    words.extend(std::iter::repeat_n("*", n));
                }
            }
        }
        words.join(" ")
    }

    /// The variable slots in order.
    pub(crate) fn vars(&self) -> Vec<VarKind> {
        self.parts
            .iter()
            .flat_map(|p| match p {
                Part::Var { kinds, .. } => kinds.clone(),
                Part::Lit(_) => Vec::new(),
            })
            .collect()
    }
}

/// Parse a pattern like `"Interface {iface}, changed state to down"` into
/// parts. A token may embed any number of `{kind}` slots with constant glue
/// text around them, e.g. `({ip})`, `{ip}:{port}`, or `{num}/{num}`.
fn parse_pattern(pattern: &str) -> Vec<Part> {
    pattern
        .split_whitespace()
        .map(|tok| {
            if !tok.contains('{') {
                return Part::Lit(tok.to_owned());
            }
            let mut kinds = Vec::new();
            let mut texts = Vec::new();
            let mut rest = tok;
            loop {
                match rest.find('{') {
                    None => {
                        texts.push(rest.to_owned());
                        break;
                    }
                    Some(open) => {
                        let close = rest.find('}').unwrap_or_else(|| panic!("bad token {tok}"));
                        assert!(open < close, "bad pattern token {tok}");
                        texts.push(rest[..open].to_owned());
                        kinds.push(var_kind(&rest[open + 1..close]));
                        rest = &rest[close + 1..];
                    }
                }
            }
            Part::Var { kinds, texts }
        })
        .collect()
}

fn var_kind(name: &str) -> VarKind {
    match name {
        "iface" => VarKind::Iface,
        "ctl" => VarKind::Controller,
        "ip" => VarKind::Ip,
        "vrf" => VarKind::Vrf,
        "pct" => VarKind::Percent,
        "num" => VarKind::Num,
        "user" => VarKind::User,
        "port" => VarKind::PortNum,
        "name" => VarKind::Name,
        "pidlist" => VarKind::PidList,
        other => panic!("unknown var kind {{{other}}}"),
    }
}

/// The full grammar for one vendor: lookup by key plus the ground-truth
/// template list.
#[derive(Debug, Clone)]
pub struct Grammar {
    pub(crate) templates: Vec<GrammarTemplate>,
    by_key: HashMap<&'static str, usize>,
}

impl Grammar {
    /// Build the grammar for `vendor`.
    pub fn for_vendor(vendor: Vendor) -> Grammar {
        let specs = match vendor {
            Vendor::V1 => catalog_v1(),
            Vendor::V2 => catalog_v2(),
        };
        let templates: Vec<GrammarTemplate> = specs
            .into_iter()
            .map(|(key, code, pattern, tail_rate)| GrammarTemplate {
                key,
                code,
                parts: parse_pattern(pattern),
                vendor,
                tail_rate,
            })
            .collect();
        let by_key = templates
            .iter()
            .enumerate()
            .map(|(i, t)| (t.key, i))
            .collect();
        Grammar { templates, by_key }
    }

    /// Fetch a template by key. Panics on unknown keys (emitter bug).
    pub fn get(&self, key: &str) -> &GrammarTemplate {
        &self.templates[*self
            .by_key
            .get(key)
            .unwrap_or_else(|| panic!("no template {key}"))]
    }

    /// Templates with a nonzero background rate, with their rates.
    pub(crate) fn tail_templates(&self) -> impl Iterator<Item = (&GrammarTemplate, f64)> {
        self.templates
            .iter()
            .filter(|t| t.tail_rate > 0.0)
            .map(|t| (t, t.tail_rate))
    }

    /// The set of ground-truth masked template strings (§5.2.1 comparison).
    pub fn masked_set(&self) -> Vec<String> {
        self.templates.iter().map(|t| t.masked()).collect()
    }
}

type Spec = (&'static str, ErrorCode, &'static str, f64);

/// Vendor V1 (Cisco-style) catalog.
///
/// Event templates come first with zero/low tail rates; the long tail of
/// rarer message types follows with Zipf-decaying background rates so the
/// per-type frequency distribution is heavy-tailed (Table 5 relies on
/// this: a small fraction of types covers almost all messages).
fn catalog_v1() -> Vec<Spec> {
    let c1 = ErrorCode::v1;
    let mut v: Vec<Spec> = vec![
        // --- core event templates (mostly event-driven) ---
        ("LINK_DOWN", c1("LINK", 3, "UPDOWN"), "Interface {iface}, changed state to down", 0.0),
        ("LINK_UP", c1("LINK", 3, "UPDOWN"), "Interface {iface}, changed state to up", 0.0),
        (
            "LINEPROTO_DOWN",
            c1("LINEPROTO", 5, "UPDOWN"),
            "Line protocol on Interface {iface}, changed state to down",
            0.0,
        ),
        (
            "LINEPROTO_UP",
            c1("LINEPROTO", 5, "UPDOWN"),
            "Line protocol on Interface {iface}, changed state to up",
            0.0,
        ),
        (
            "CONTROLLER_DOWN",
            c1("CONTROLLER", 5, "UPDOWN"),
            "Controller T3 {ctl}, changed state to down",
            0.0,
        ),
        (
            "CONTROLLER_UP",
            c1("CONTROLLER", 5, "UPDOWN"),
            "Controller T3 {ctl}, changed state to up",
            0.0,
        ),
        (
            "OSPF_DOWN",
            c1("OSPF", 5, "ADJCHG"),
            "Process 64, Nbr {ip} on {iface} from FULL to DOWN, Neighbor Down: Interface down or detached",
            0.0,
        ),
        (
            "OSPF_UP",
            c1("OSPF", 5, "ADJCHG"),
            "Process 64, Nbr {ip} on {iface} from LOADING to FULL, Loading Done",
            0.0,
        ),
        ("BGP_UP", c1("BGP", 5, "ADJCHANGE"), "neighbor {ip} vpn vrf {vrf} Up", 0.0),
        (
            "BGP_DOWN_IFFLAP",
            c1("BGP", 5, "ADJCHANGE"),
            "neighbor {ip} vpn vrf {vrf} Down Interface flap",
            0.0,
        ),
        (
            "BGP_DOWN_SENT",
            c1("BGP", 5, "ADJCHANGE"),
            "neighbor {ip} vpn vrf {vrf} Down BGP Notification sent",
            0.0,
        ),
        (
            "BGP_DOWN_RECV",
            c1("BGP", 5, "ADJCHANGE"),
            "neighbor {ip} vpn vrf {vrf} Down BGP Notification received",
            0.0,
        ),
        (
            "BGP_DOWN_CLOSED",
            c1("BGP", 5, "ADJCHANGE"),
            "neighbor {ip} vpn vrf {vrf} Down Peer closed the session",
            0.0,
        ),
        (
            "CPU_RISE",
            c1("SYS", 1, "CPURISINGTHRESHOLD"),
            "Threshold: Total CPU Utilization(Total/Intr): {pct}%/1%, Top 3 processes (Pid/Util): {pidlist}",
            0.0,
        ),
        (
            "CPU_FALL",
            c1("SYS", 1, "CPUFALLINGTHRESHOLD"),
            "Threshold: Total CPU Utilization(Total/Intr) {pct}%/1%.",
            0.0,
        ),
        (
            "TCP_BADAUTH",
            c1("TCP", 6, "BADAUTH"),
            "Invalid MD5 digest from {ip}:{port} to {ip}:{port}",
            0.2,
        ),
        (
            "CONFIG_I",
            c1("SYS", 5, "CONFIG_I"),
            "Configured from console by {user} on vty0 ({ip})",
            1.2,
        ),
        ("LC_FAIL", c1("HW", 2, "LCDOWN"), "Linecard in slot {num} failed, resetting", 0.0),
        ("LC_UP", c1("HW", 5, "LCUP"), "Linecard in slot {num} is up", 0.0),
        (
            "ENV_TEMP",
            c1("ENVMON", 2, "TEMPHIGH"),
            "Temperature sensor on slot {num} reading {num} C exceeds threshold",
            0.0,
        ),
        (
            "MEM_LOW",
            c1("SYS", 2, "MALLOCFAIL"),
            "Memory allocation of {num} bytes failed from interrupt level, pool Processor",
            0.3,
        ),
    ];
    // --- background tail: Zipf-decaying rates over ~90 additional types ---
    let tail: Vec<(&'static str, ErrorCode, &'static str)> = vec![
        ("NTP_UNSYNC", c1("NTP", 4, "UNSYNC"), "NTP sync is lost with server {ip}"),
        ("NTP_SYNC", c1("NTP", 5, "SYNC"), "NTP sync is restored with server {ip}"),
        (
            "DUPLEX_MISMATCH",
            c1("CDP", 4, "DUPLEX_MISMATCH"),
            "duplex mismatch discovered on {iface} with {name}",
        ),
        ("SNMP_AUTHFAIL", c1("SNMP", 3, "AUTHFAIL"), "Authentication failure for SNMP request from host {ip}"),
        ("SSH_FAIL_V1", c1("SSH", 4, "FAIL"), "SSH authentication failure for user {user} from {ip}"),
        ("VTY_TIMEOUT", c1("SYS", 6, "TTY_EXPIRE_TIMER"), "(exec timer expired, tty {num} ({ip})), user {user}"),
        ("ACL_DENY", c1("SEC", 6, "IPACCESSLOGP"), "list {num} denied tcp {ip}(1433) -> {ip}({port}), 1 packet"),
        ("CRYPTO_FAIL", c1("CRYPTO", 4, "RECVD_PKT_INV_SPI"), "decaps: rec'd IPSEC packet has invalid spi for destaddr={ip}"),
        ("FAN_FAIL", c1("ENVMON", 2, "FANFAIL"), "Fan tray {num} failure detected"),
        ("FAN_OK", c1("ENVMON", 5, "FANOK"), "Fan tray {num} is operating normally"),
        ("PWR_FAIL", c1("ENVMON", 1, "PSFAIL"), "Power supply {num} output failure"),
        ("PWR_OK", c1("ENVMON", 5, "PSOK"), "Power supply {num} output restored"),
        ("BGP_MAXPFX", c1("BGP", 4, "MAXPFX"), "No. of prefix received from {ip} (afi 0) reaches {num}, max {num}"),
        ("BGP_NOTIF_IN", c1("BGP", 3, "NOTIFICATION"), "received from neighbor {ip} 4/0 (hold time expired) 0 bytes"),
        ("PIM_V1_NBR", c1("PIM", 5, "NBRCHG"), "neighbor {ip} DOWN on interface {iface} non DR"),
        ("MPLS_TE", c1("MPLS_TE", 5, "LSP"), "LSP {name} UP"),
        ("ISIS_ADJ", c1("CLNS", 5, "ADJCHANGE"), "ISIS: Adjacency to {name} ({iface}) Up, new adjacency"),
        ("HSRP_CHG", c1("HSRP", 5, "STATECHANGE"), "{iface} Grp {num} state Standby -> Active"),
        ("LDP_NBR", c1("LDP", 5, "NBRCHG"), "LDP Neighbor {ip}:0 is DOWN (Received error notification from peer: Holddown time expired)"),
        ("CEF_INCONSISTENT", c1("FIB", 4, "CEFINCONSISTENT"), "CEF detected inconsistency on {iface}"),
        ("QOS_DROP", c1("QOS", 4, "POLICEDROP"), "Packets dropped by policer on {iface} exceed {num} pps"),
        ("IPV6_ND", c1("IPV6_ND", 4, "DUPLICATE"), "Duplicate address {ip} on {iface}"),
        ("ARP_FLAP", c1("ARP", 4, "FLAP"), "{ip} is flapping between {iface} and {iface}"),
        ("STP_CHG", c1("SPANTREE", 5, "TOPOTRAP"), "topology change trap for vlan {num}"),
        ("MAC_MOVE", c1("MAC", 4, "MOVE"), "Host {ip} is flapping between port {iface} and port {iface}"),
        ("DHCP_SNOOP", c1("DHCP_SNOOPING", 4, "AGENT"), "DHCP snooping binding transfer failed ({num})"),
        ("AAA_SERVER", c1("AAA", 3, "SERVER_DOWN"), "RADIUS server {ip}:{port} is not responding"),
        ("AAA_SERVER_UP", c1("AAA", 5, "SERVER_UP"), "RADIUS server {ip}:{port} is responding again"),
        ("LINEPROTO_LOOP", c1("LINEPROTO", 5, "LOOPSTATUS"), "Interface {iface}, loop detected"),
        ("SERIAL_CRC", c1("SERIAL", 4, "CRCERR"), "Interface {iface}, excessive CRC errors detected {num} in last interval"),
        ("CONTROLLER_ERRS", c1("CONTROLLER", 5, "REMLOOP"), "Controller T3 {ctl}, remote loop detected"),
        ("FLASH_WRITE", c1("FLASH", 3, "WRITEFAIL"), "Flash write failed on device flash: errno {num}"),
        ("REDUNDANCY", c1("RED", 5, "SWITCHOVER"), "Redundancy switchover from unit {num} to unit {num} complete"),
        ("CLOCK_STEP", c1("SYS", 6, "CLOCKUPDATE"), "System clock has been updated from {user} source"),
        ("IMAGE_VERIFY", c1("SYS", 6, "IMGVERIFY"), "Image verification of file {name} completed"),
        ("LINK_ERRDISABLE", c1("PM", 4, "ERR_DISABLE"), "link-flap error detected on {iface}, putting {iface} in err-disable state"),
        ("LINK_RECOVER", c1("PM", 4, "ERR_RECOVER"), "Attempting to recover from link-flap err-disable state on {iface}"),
        ("MCAST_LIMIT", c1("MCAST", 4, "LIMIT"), "Multicast state limit {num} reached on {iface}"),
        ("TCAM_FULL", c1("TCAM", 3, "FULL"), "TCAM region {name} is full, software forwarding on slot {num}"),
        ("NETFLOW_CACHE", c1("NETFLOW", 4, "CACHEFULL"), "Netflow cache is full, {num} flows dropped"),
        ("SMART_LIC", c1("LICENSE", 6, "RENEW"), "Smart license renewal for entitlement {name}"),
        ("PORT_SECURITY", c1("PORT_SECURITY", 2, "VIOLATION"), "Security violation on {iface}, MAC {name} denied"),
        ("OIR_INSERT", c1("OIR", 6, "INSCARD"), "Card inserted in slot {num}, interfaces administratively shut down"),
        ("OIR_REMOVE", c1("OIR", 6, "REMCARD"), "Card removed from slot {num}, interfaces disabled"),
        ("WATCHDOG", c1("SYS", 2, "WATCHDOG"), "Process {name} exceeded watchdog timeout on CPU {num}"),
        ("STACK_LOW", c1("SYS", 3, "STACKLOW"), "Process {name} stack usage {pct}% of limit"),
        ("BUFFER_FAIL", c1("SYS", 3, "NOBUF"), "No buffers available in pool {name}, {num} misses"),
        ("IF_RESET", c1("IF", 4, "RESET"), "Interface {iface} reset by driver, error code {num}"),
        ("KEEPALIVE", c1("IF", 3, "KEEPALIVE"), "Keepalive timeout on {iface}, {num} missed"),
        ("REXEC", c1("SYS", 6, "LOGOUT"), "User {user} has exited tty session {num}({ip})"),
        ("LOGIN_OK", c1("SEC_LOGIN", 5, "LOGIN_SUCCESS"), "Login Success [user: {user}] [Source: {ip}] [localport: {port}]"),
        ("LOGIN_FAILED_V1", c1("SEC_LOGIN", 4, "LOGIN_FAILED"), "Login failed [user: {user}] [Source: {ip}] [localport: {port}] [Reason: Login Authentication Failed]"),
        ("BADPKT", c1("IP", 4, "BADPKT"), "Bad packet received from {ip}, protocol {num}"),
        ("TTL_EXPIRED", c1("IP", 6, "TTLEXPIRE"), "TTL expired for packet from {ip} to {ip}"),
        ("FRAG_OVERFLOW", c1("IP", 4, "FRAGOVERFLOW"), "Fragment reassembly overflow from {ip}"),
        ("SLA_TIMEOUT", c1("RTT", 4, "OPER_TIMEOUT"), "condition occurred, entry number = {num}"),
        ("TRACK_CHG", c1("TRACK", 5, "STATE"), "{num} interface {iface} line-protocol Up -> Down"),
        ("VRRP_CHG", c1("VRRP", 5, "STATECHANGE"), "Vl{num} Grp {num} state Master -> Backup"),
        ("BFD_SESS", c1("BFD", 5, "SESSION"), "BFD session to neighbor {ip} on interface {iface} has gone down, reason: echo failure"),
        ("BFD_SESS_UP", c1("BFD", 5, "SESSIONUP"), "BFD session to neighbor {ip} on interface {iface} is up"),
        ("CDP_NATIVE", c1("CDP", 4, "NATIVE_VLAN_MISMATCH"), "Native VLAN mismatch discovered on {iface} ({num}), with {name} {iface} ({num})"),
        ("ENTITY_ALARM", c1("ENTITY_ALARM", 6, "INFO"), "ASSERT CRITICAL {iface} Physical Port Link Down"),
        ("ENTITY_CLEAR", c1("ENTITY_ALARM", 6, "CLEAR"), "CLEAR CRITICAL {iface} Physical Port Link Down"),
    ];
    for (rank, (key, code, pattern)) in tail.into_iter().enumerate() {
        let rate = 1.0 / (rank as f64 + 2.0).powf(0.7);
        v.push((key, code, pattern, rate));
    }
    v
}

/// Vendor V2 (TiMOS-style) catalog.
fn catalog_v2() -> Vec<Spec> {
    let c2 = ErrorCode::v2;
    let mut v: Vec<Spec> = vec![
        (
            "SNMP_LINKDOWN",
            c2("SNMP", "WARNING", "linkDown"),
            "Interface {iface} is not operational",
            0.0,
        ),
        (
            "SNMP_LINKUP",
            c2("SNMP", "WARNING", "linkup"),
            "Interface {iface} is operational",
            0.0,
        ),
        (
            "SAP_CHANGE",
            c2("SVCMGR", "MAJOR", "sapPortStateChangeProcessed"),
            "The status of all affected SAPs on port {iface} has been updated.",
            0.0,
        ),
        (
            "PIM_NBR_LOSS",
            c2("PIM", "WARNING", "pimNeighborLoss"),
            "PIM neighbor {ip} on interface {iface} lost",
            0.0,
        ),
        (
            "PIM_NBR_UP",
            c2("PIM", "INFO", "pimNeighborUp"),
            "PIM neighbor {ip} on interface {iface} established",
            0.0,
        ),
        (
            "FRR_SWITCH",
            c2("MPLS", "MINOR", "frrProtectionSwitch"),
            "FRR protection switch for LSP {name} to secondary path",
            0.0,
        ),
        (
            "FRR_REVERT",
            c2("MPLS", "MINOR", "frrRevert"),
            "LSP {name} reverted to primary path",
            0.0,
        ),
        (
            "LSP_DOWN",
            c2("MPLS", "MAJOR", "lspDown"),
            "LSP {name} changed state to down",
            0.0,
        ),
        (
            "LSP_UP",
            c2("MPLS", "MAJOR", "lspUp"),
            "LSP {name} changed state to up",
            0.0,
        ),
        (
            "LSP_RETRY",
            c2("MPLS", "MINOR", "lspPathRetry"),
            "LSP {name} path setup retry attempt {num}",
            0.0,
        ),
        (
            "FTP_FAIL",
            c2("SECURITY", "WARNING", "ftpLoginFailed"),
            "FTP login failed for user {user} from host {ip}",
            0.15,
        ),
        (
            "SSH_FAIL",
            c2("SECURITY", "WARNING", "sshLoginFailed"),
            "SSH login failed for user {user} from host {ip}",
            0.15,
        ),
        (
            "BGP_EST",
            c2("BGP", "WARNING", "bgpEstablished"),
            "BGP neighbor {ip} vrf {vrf} moved into established state",
            0.0,
        ),
        (
            "BGP_BWT",
            c2("BGP", "WARNING", "bgpBackwardTransition"),
            "BGP neighbor {ip} vrf {vrf} moved from higher to lower state",
            0.0,
        ),
        (
            "PORT_ETH_DOWN",
            c2("PORT", "MINOR", "etherAlarmSet"),
            "Alarm remoteFault set on port {iface}",
            0.0,
        ),
        (
            "PORT_ETH_CLEAR",
            c2("PORT", "MINOR", "etherAlarmClear"),
            "Alarm remoteFault cleared on port {iface}",
            0.0,
        ),
        (
            "IGMP_QUERY",
            c2("IGMP", "WARNING", "queryVersionMismatch"),
            "IGMP version mismatch detected on interface {iface} from querier {ip}",
            0.25,
        ),
        (
            "SVC_DOWN",
            c2("SVCMGR", "MAJOR", "svcStatusChanged"),
            "Status of service {num} changed to operState down",
            0.0,
        ),
        (
            "SVC_UP",
            c2("SVCMGR", "MAJOR", "svcStatusChangedUp"),
            "Status of service {num} changed to operState up",
            0.0,
        ),
        (
            "CARD_FAIL",
            c2("CHASSIS", "CRITICAL", "cardFailure"),
            "Card failure on slot {num} reason hardware fault",
            0.0,
        ),
        (
            "CARD_UP",
            c2("CHASSIS", "MINOR", "cardInserted"),
            "Card in slot {num} returned to service",
            0.0,
        ),
    ];
    let tail: Vec<(&'static str, ErrorCode, &'static str)> = vec![
        (
            "CHASSIS_FAN",
            c2("CHASSIS", "MAJOR", "fanFailure"),
            "Fan {num} failure detected in fan tray {num}",
        ),
        (
            "CHASSIS_TEMP",
            c2("CHASSIS", "CRITICAL", "tempThresholdExceeded"),
            "Temperature {num} C on card {num} exceeds threshold",
        ),
        (
            "CHASSIS_PWR",
            c2("CHASSIS", "CRITICAL", "powerSupplyFailure"),
            "Power supply {num} failed",
        ),
        (
            "CHASSIS_PWR_OK",
            c2("CHASSIS", "MINOR", "powerSupplyRestored"),
            "Power supply {num} restored",
        ),
        (
            "SYSTEM_CPU",
            c2("SYSTEM", "MINOR", "cpuHigh"),
            "System CPU utilization {pct}% exceeds minor threshold",
        ),
        (
            "SYSTEM_MEM",
            c2("SYSTEM", "MINOR", "memHigh"),
            "Memory pool utilization {pct}% on card {num}",
        ),
        (
            "NTP_V2",
            c2("SYSTEM", "WARNING", "ntpServerUnreachable"),
            "NTP server {ip} is unreachable",
        ),
        (
            "SNMP_AUTH_V2",
            c2("SNMP", "WARNING", "authenticationFailure"),
            "SNMP authentication failure from host {ip}",
        ),
        (
            "OSPF_V2_DOWN",
            c2("OSPF", "WARNING", "ospfNbrStateChange"),
            "OSPF neighbor {ip} on interface {iface} changed state to down",
        ),
        (
            "OSPF_V2_UP",
            c2("OSPF", "WARNING", "ospfNbrStateChangeUp"),
            "OSPF neighbor {ip} on interface {iface} changed state to full",
        ),
        (
            "LDP_V2",
            c2("LDP", "WARNING", "ldpSessionDown"),
            "LDP session to {ip} is down reason peerSentNotification",
        ),
        (
            "LDP_V2_UP",
            c2("LDP", "WARNING", "ldpSessionUp"),
            "LDP session to {ip} is operational",
        ),
        (
            "RSVP_V2",
            c2("RSVP", "WARNING", "rsvpSessionDown"),
            "RSVP session for LSP {name} is down",
        ),
        (
            "FILTER_HIT",
            c2("FILTER", "WARNING", "filterEntryHit"),
            "Filter entry {num} matched {num} packets from {ip}",
        ),
        (
            "DOT1X",
            c2("SECURITY", "WARNING", "dot1xAuthFail"),
            "802.1x authentication failed on port {iface} for supplicant {name}",
        ),
        (
            "RADIUS_V2",
            c2("SECURITY", "MAJOR", "radiusServerTimeout"),
            "RADIUS server {ip} port {port} request timeout",
        ),
        (
            "MDA_SYNC",
            c2("CHASSIS", "MINOR", "mdaSyncFail"),
            "MDA {num}/{num} synchronization lost",
        ),
        (
            "ACCT_OVERFLOW",
            c2("SYSTEM", "WARNING", "acctPolicyOverflow"),
            "Accounting policy {num} record overflow {num} records dropped",
        ),
        (
            "SAA_THRESH",
            c2("SAA", "WARNING", "saaThresholdCrossed"),
            "SAA test {name} round-trip time {num} ms exceeded rising threshold",
        ),
        (
            "VRRP_V2",
            c2("VRRP", "WARNING", "vrrpStateChange"),
            "VRRP instance {num} on interface {iface} changed state to backup",
        ),
        (
            "CFLOWD_FULL",
            c2("CFLOWD", "WARNING", "cacheFull"),
            "Cflowd cache full {num} flows not accounted",
        ),
        (
            "PORT_SFP",
            c2("PORT", "WARNING", "sfpRemoved"),
            "SFP removed from port {iface}",
        ),
        (
            "PORT_SFP_IN",
            c2("PORT", "WARNING", "sfpInserted"),
            "SFP inserted in port {iface}",
        ),
        (
            "TOD_SUITE",
            c2("SYSTEM", "INFO", "todSuiteChange"),
            "Time-of-day suite {name} activated",
        ),
        (
            "CRON_RUN",
            c2("SYSTEM", "INFO", "cronScriptRun"),
            "CRON script {name} completed with exit code {num}",
        ),
        (
            "LOGIN_V2",
            c2("SECURITY", "INFO", "cliLogin"),
            "User {user} logged in from {ip}",
        ),
        (
            "LOGOUT_V2",
            c2("SECURITY", "INFO", "cliLogout"),
            "User {user} logged out from {ip}",
        ),
        (
            "CONFIG_V2",
            c2("SYSTEM", "INFO", "configModify"),
            "Configuration modified by user {user} from {ip}",
        ),
        (
            "IGMP_MAXGRP",
            c2("IGMP", "WARNING", "maxGroupsReached"),
            "Maximum IGMP groups {num} reached on interface {iface}",
        ),
        (
            "MCPATH_CONG",
            c2("MCPATH", "WARNING", "pathCongestion"),
            "Multicast path congestion on interface {iface} channel {ip}",
        ),
        (
            "VIDEO_GAP",
            c2("VIDEO", "WARNING", "rtGapDetected"),
            "Video gap detected on channel {ip} duration {num} ms",
        ),
        (
            "VIDEO_FCC",
            c2("VIDEO", "INFO", "fccSessionLimit"),
            "FCC session limit {num} reached on service {num}",
        ),
        (
            "PTP_SYNC",
            c2("PTP", "WARNING", "ptpSyncLost"),
            "PTP clock sync lost with master {ip}",
        ),
        (
            "ROUTE_LIMIT",
            c2("ROUTER", "WARNING", "routeLimitExceeded"),
            "VRF {vrf} route limit {num} exceeded",
        ),
        (
            "ARP_DUP_V2",
            c2("ROUTER", "WARNING", "duplicateIp"),
            "Duplicate IP address {ip} detected on interface {iface}",
        ),
    ];
    for (rank, (key, code, pattern)) in tail.into_iter().enumerate() {
        let rate = 1.0 / (rank as f64 + 2.0).powf(0.7);
        v.push((key, code, pattern, rate));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_have_unique_keys_and_parse() {
        for vendor in [Vendor::V1, Vendor::V2] {
            let g = Grammar::for_vendor(vendor);
            let mut keys: Vec<&str> = g.templates.iter().map(|t| t.key).collect();
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(n, keys.len(), "duplicate keys for {vendor}");
            assert!(n >= 50, "catalog for {vendor} too small: {n}");
        }
    }

    #[test]
    fn masked_forms_are_unique_templates() {
        for vendor in [Vendor::V1, Vendor::V2] {
            let g = Grammar::for_vendor(vendor);
            let mut masked = g.masked_set();
            let n = masked.len();
            masked.sort();
            masked.dedup();
            assert_eq!(n, masked.len(), "colliding masked templates for {vendor}");
        }
    }

    #[test]
    fn render_fills_slots_in_order() {
        let g = Grammar::for_vendor(Vendor::V1);
        let t = g.get("BGP_UP");
        let mut vals = vec!["1000:1001".to_owned(), "192.168.32.42".to_owned()];
        let out = t.render(|k| match k {
            VarKind::Ip => vals.pop().unwrap(),
            VarKind::Vrf => vals.remove(0),
            other => panic!("unexpected slot {other:?}"),
        });
        assert_eq!(out, "neighbor 192.168.32.42 vpn vrf 1000:1001 Up");
    }

    #[test]
    fn masked_matches_paper_table4_shape() {
        let g = Grammar::for_vendor(Vendor::V1);
        assert_eq!(
            g.get("BGP_DOWN_IFFLAP").masked(),
            "BGP-5-ADJCHANGE neighbor * vpn vrf * Down Interface flap"
        );
        assert_eq!(
            g.get("LINEPROTO_DOWN").masked(),
            "LINEPROTO-5-UPDOWN Line protocol on Interface * changed state to down"
        );
    }

    #[test]
    fn pidlist_renders_three_tokens_and_masks_three_stars() {
        let g = Grammar::for_vendor(Vendor::V1);
        let t = g.get("CPU_RISE");
        let masked = t.masked();
        let stars = masked.split_whitespace().filter(|w| *w == "*").count();
        // pct + pidlist(3) = 4 stars
        assert_eq!(stars, 4, "{masked}");
        let rendered = t.render(|k| match k {
            VarKind::Percent => "95".to_owned(),
            VarKind::PidList => "2/71%, 8/6%, 7/3%".to_owned(),
            other => panic!("unexpected {other:?}"),
        });
        assert!(rendered.contains("95%/1%"));
        assert!(rendered.ends_with("2/71%, 8/6%, 7/3%"));
    }

    #[test]
    fn punctuation_stays_glued_to_var_tokens() {
        let g = Grammar::for_vendor(Vendor::V1);
        let t = g.get("LINK_DOWN");
        let out = t.render(|_| "Serial1/0.10/10:0".to_owned());
        assert_eq!(out, "Interface Serial1/0.10/10:0, changed state to down");
    }

    #[test]
    fn tail_templates_have_decaying_rates() {
        let g = Grammar::for_vendor(Vendor::V1);
        let rates: Vec<f64> = g.tail_templates().map(|(_, r)| r).collect();
        assert!(rates.len() > 30);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 20.0,
            "tail should be heavy: max={max} min={min}"
        );
    }

    #[test]
    #[should_panic(expected = "no template")]
    fn unknown_key_panics() {
        Grammar::for_vendor(Vendor::V1).get("NOPE");
    }
}
