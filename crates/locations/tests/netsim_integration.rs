//! The location learner against full generated configs and real message
//! streams from the netsim substrate.

use sd_locations::{extract, LocationDictionary};
use sd_model::LocationLevel;
use sd_netsim::{Dataset, DatasetSpec};
use sd_telemetry::Telemetry;

fn check(spec: DatasetSpec) {
    let name = spec.name.clone();
    let d = Dataset::generate(spec.scaled(0.12), &Telemetry::disabled());
    let dict = LocationDictionary::build(&d.configs);

    // Every topology router is known, with its state code.
    for r in &d.topology.routers {
        let rid = dict
            .router_id(&r.name)
            .unwrap_or_else(|| panic!("{} unknown", r.name));
        assert_eq!(dict.state_of(rid), r.state, "state of {}", r.name);
    }
    // Every link's two interfaces are dictionary peers.
    for l in &d.topology.links {
        let (ra, ia) = d.topology.endpoint(l.a);
        let (rb, ib) = d.topology.endpoint(l.b);
        let la = dict
            .by_name(dict.router_id(&ra.name).unwrap(), &ia.name)
            .unwrap();
        let lb = dict
            .by_name(dict.router_id(&rb.name).unwrap(), &ib.name)
            .unwrap();
        assert_eq!(
            dict.link_peer(la),
            Some(lb),
            "link {} <-> {}",
            ia.name,
            ib.name
        );
    }

    // Extraction succeeds for every message, and interface-bearing messages
    // resolve below router level.
    let mut total = 0usize;
    let mut sub_router = 0usize;
    for m in d.messages.iter().step_by(11) {
        let e = extract(&dict, m).unwrap_or_else(|| panic!("router {} unknown", m.router()));
        assert!(!e.locations.is_empty());
        total += 1;
        if dict.info(e.locations[0]).level != LocationLevel::Router {
            sub_router += 1;
        }
    }
    let frac = sub_router as f64 / total as f64;
    assert!(
        frac > 0.5,
        "dataset {name}: only {frac:.2} of messages resolve below router level"
    );
}

#[test]
fn dataset_a_locations_resolve() {
    check(DatasetSpec::preset_a());
}

#[test]
fn dataset_b_locations_resolve() {
    check(DatasetSpec::preset_b());
}

#[test]
fn iptv_paths_resolve() {
    let d = Dataset::generate(DatasetSpec::preset_b().scaled(0.12), &Telemetry::disabled());
    let dict = LocationDictionary::build(&d.configs);
    for p in &d.topology.paths {
        let loc = dict
            .path(&p.name)
            .unwrap_or_else(|| panic!("path {} unknown", p.name));
        let routers = dict.path_routers(loc).expect("members recorded");
        assert!(!routers.is_empty());
    }
}
