//! Tiny IPv4 helper used by the topology generator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An IPv4 address as a plain `u32` (network byte order semantics).
///
/// We avoid `std::net::Ipv4Addr` only because we need serde derives and
/// cheap arithmetic allocation; conversion is provided where useful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub(crate) struct Ipv4(pub u32);

impl Ipv4 {
    /// Build from dotted-quad octets.
    pub(crate) fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from(a) << 24 | u32::from(b) << 16 | u32::from(c) << 8 | u32::from(d))
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        write!(
            f,
            "{}.{}.{}.{}",
            v >> 24,
            (v >> 16) & 0xff,
            (v >> 8) & 0xff,
            v & 0xff
        )
    }
}

/// Sequential allocator handing out addresses from a private block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct IpAllocator {
    next: u32,
}

impl IpAllocator {
    /// Allocator starting at `10.0.0.1`-style base.
    pub(crate) fn new(base: Ipv4) -> Self {
        IpAllocator { next: base.0 }
    }

    /// Hand out the next address, skipping `.0` and `.255` host octets so
    /// rendered configs look like real unicast interface addresses.
    pub(crate) fn alloc(&mut self) -> Ipv4 {
        loop {
            let v = self.next;
            self.next = self.next.wrapping_add(1);
            let last = v & 0xff;
            if last != 0 && last != 255 {
                return Ipv4(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_dotted_quad() {
        let ip = Ipv4::new(192, 168, 32, 42);
        assert_eq!(ip.to_string(), "192.168.32.42");
    }

    #[test]
    fn allocator_skips_network_and_broadcast_octets() {
        let mut alloc = IpAllocator::new(Ipv4::new(10, 0, 0, 254));
        let a = alloc.alloc();
        let b = alloc.alloc();
        let c = alloc.alloc();
        assert_eq!(a.to_string(), "10.0.0.254");
        assert_eq!(b.to_string(), "10.0.1.1"); // skips .255 and .0
        assert_eq!(c.to_string(), "10.0.1.2");
    }
}
