//! Interface-name structure parsing.
//!
//! Location names embed their own place in the Figure 3 hierarchy:
//! `Serial1/0.10/10:0` is a logical channel on port 0 of slot 1,
//! `GigabitEthernet2/1` is a physical port interface, `1/1/2` is a V2
//! port channel. This module decodes those shapes; the dictionary uses
//! them to attach every interface under its slot and port nodes.

/// Decoded structure of an interface/port name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IfaceStruct {
    /// V1 channelized serial: `Serial<slot>/<port>` with optional
    /// `.<sub>/<chan>:0` logical tail.
    V1Serial {
        /// Slot index.
        slot: u8,
        /// Port index.
        port: u8,
        /// Whether the name carries a logical channel tail.
        logical: bool,
    },
    /// V1 ethernet: `GigabitEthernet<slot>/<port>` with optional `.<vlan>`.
    V1Ethernet {
        /// Slot index.
        slot: u8,
        /// Port index.
        port: u8,
        /// Whether the name is a dot1q sub-interface.
        logical: bool,
    },
    /// V2 port: `<slot>/<port>/<chan>`.
    V2Port {
        /// Slot index.
        slot: u8,
        /// Port index.
        port: u8,
    },
    /// `Loopback<N>`.
    Loopback,
    /// `Multilink<N>` bundle interface.
    Multilink,
    /// Anything else.
    Other,
}

/// Decode an interface name. Returns [`IfaceStruct::Other`] for names that
/// do not follow a known convention (never panics on message-derived junk).
pub fn parse_iface_name(name: &str) -> IfaceStruct {
    if let Some(rest) = name.strip_prefix("Serial") {
        if let Some((slot, port, logical)) = slot_port(rest) {
            return IfaceStruct::V1Serial {
                slot,
                port,
                logical,
            };
        }
        return IfaceStruct::Other;
    }
    if let Some(rest) = name.strip_prefix("GigabitEthernet") {
        if let Some((slot, port, logical)) = slot_port(rest) {
            return IfaceStruct::V1Ethernet {
                slot,
                port,
                logical,
            };
        }
        return IfaceStruct::Other;
    }
    if name.starts_with("Loopback") {
        return IfaceStruct::Loopback;
    }
    if name.starts_with("Multilink") {
        return IfaceStruct::Multilink;
    }
    // V2 `s/p/c`: exactly three small integers.
    let parts: Vec<&str> = name.split('/').collect();
    if parts.len() == 3 {
        if let (Ok(slot), Ok(port), Ok(_chan)) = (
            parts[0].parse::<u8>(),
            parts[1].parse::<u8>(),
            parts[2].parse::<u16>(),
        ) {
            return IfaceStruct::V2Port { slot, port };
        }
    }
    IfaceStruct::Other
}

/// Parse `<slot>/<port>[.<...>]` returning `(slot, port, has_logical_tail)`.
fn slot_port(rest: &str) -> Option<(u8, u8, bool)> {
    let (sp, tail) = match rest.find('.') {
        Some(i) => (&rest[..i], true),
        None => (rest, false),
    };
    let (s, p) = sp.split_once('/')?;
    Some((s.parse().ok()?, p.parse().ok()?, tail))
}

/// Whether a token looks like a dotted-quad IPv4 address; returns the
/// address text (the token itself, borrowed).
pub fn parse_ip_token(tok: &str) -> Option<&str> {
    let mut n = 0;
    for part in tok.split('.') {
        let v: u32 = part.parse().ok()?;
        if v > 255 || part.is_empty() || part.len() > 3 {
            return None;
        }
        n += 1;
    }
    (n == 4).then_some(tok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_names_decode() {
        assert_eq!(
            parse_iface_name("Serial1/0.10/10:0"),
            IfaceStruct::V1Serial {
                slot: 1,
                port: 0,
                logical: true
            }
        );
        assert_eq!(
            parse_iface_name("Serial13/2"),
            IfaceStruct::V1Serial {
                slot: 13,
                port: 2,
                logical: false
            }
        );
        assert_eq!(parse_iface_name("Serialx/y"), IfaceStruct::Other);
    }

    #[test]
    fn ethernet_names_decode() {
        assert_eq!(
            parse_iface_name("GigabitEthernet2/1"),
            IfaceStruct::V1Ethernet {
                slot: 2,
                port: 1,
                logical: false
            }
        );
        assert_eq!(
            parse_iface_name("GigabitEthernet2/1.100"),
            IfaceStruct::V1Ethernet {
                slot: 2,
                port: 1,
                logical: true
            }
        );
    }

    #[test]
    fn v2_ports_decode() {
        assert_eq!(
            parse_iface_name("1/1/2"),
            IfaceStruct::V2Port { slot: 1, port: 1 }
        );
        assert_eq!(parse_iface_name("1/1"), IfaceStruct::Other);
        assert_eq!(parse_iface_name("1/1/2/3"), IfaceStruct::Other);
        assert_eq!(parse_iface_name("900/1/2"), IfaceStruct::Other);
    }

    #[test]
    fn special_names_decode() {
        assert_eq!(parse_iface_name("Loopback0"), IfaceStruct::Loopback);
        assert_eq!(parse_iface_name("Multilink1"), IfaceStruct::Multilink);
        assert_eq!(parse_iface_name("Tunnel9"), IfaceStruct::Other);
    }

    #[test]
    fn ip_tokens_validate() {
        assert_eq!(parse_ip_token("192.168.32.42"), Some("192.168.32.42"));
        assert_eq!(parse_ip_token("192.168.32"), None);
        assert_eq!(parse_ip_token("192.168.32.256"), None);
        assert_eq!(parse_ip_token("a.b.c.d"), None);
        assert_eq!(parse_ip_token("1.2.3.4.5"), None);
    }
}
