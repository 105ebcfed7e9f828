//! Property tests: parsers never panic on junk, and spatial matching is a
//! well-behaved relation.

use proptest::prelude::*;
use sd_locations::{extract, parse_config, LocationDictionary};
use sd_locations::{parse_iface_name, parse_ip_token};
use sd_model::{ErrorCode, LocationId, RawMessage, Timestamp};

proptest! {
    /// Name/IP classifiers accept arbitrary input without panicking.
    #[test]
    fn name_parsers_are_total(s in "[ -~]{0,40}") {
        let _ = parse_iface_name(&s);
        let _ = parse_ip_token(&s);
    }

    /// Config parsing accepts arbitrary text without panicking.
    #[test]
    fn config_parser_is_total(s in "[ -~\n]{0,500}") {
        let _ = parse_config(&s);
    }

    /// Extraction accepts arbitrary detail text without panicking and
    /// always returns at least the router location.
    #[test]
    fn extraction_is_total(detail in "[ -~]{0,120}") {
        let cfg = "\
hostname r1
!
interface Serial1/0
 ip address 10.0.0.1 255.255.255.252
";
        let d = LocationDictionary::build(&[cfg.to_owned()]);
        let m = RawMessage::new(Timestamp(0), "r1", ErrorCode::from("X-1-Y"), detail);
        let e = extract(&d, &m).expect("known router");
        prop_assert!(!e.locations.is_empty());
    }
}

#[test]
fn spatial_matching_is_reflexive_and_symmetric() {
    let cfg_a = "\
hostname r1
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
!
interface GigabitEthernet2/1
 ip address 10.0.0.5 255.255.255.252
!
interface Multilink1
 multilink-group member Serial1/0
!
";
    let d = LocationDictionary::build(&[cfg_a.to_owned()]);
    let locs: Vec<LocationId> = (0..d.len() as u32).map(LocationId).collect();
    for &a in &locs {
        assert!(d.spatially_match(a, a), "reflexive at {a}");
        for &b in &locs {
            assert_eq!(
                d.spatially_match(a, b),
                d.spatially_match(b, a),
                "symmetric at {a},{b}"
            );
        }
    }
    // Ancestors always spatially match descendants.
    for &a in &locs {
        for anc in d.ancestors(a) {
            assert!(d.spatially_match(a, anc));
        }
    }
}
