//! The domain knowledge base (the output of offline learning in Figure 1):
//! message templates, the location dictionary, temporal parameters, the
//! association rule set, and historical signature frequencies for
//! prioritization. Serializable, so a learned base can be shipped to the
//! online system.

use crate::envelope::{self, ArtifactError, ArtifactKind, EnvelopeError};
use sd_locations::LocationDictionary;
use sd_model::{ErrorCode, FxHashMap, Interner, RouterId, TemplateId, TokenScratch};
use sd_rules::RuleSet;
use sd_templates::TemplateSet;
use sd_temporal::TemporalConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Sentinel template id for codes never seen during training.
pub const UNKNOWN_TEMPLATE: TemplateId = TemplateId(u32::MAX);

/// On-disk schema version of enveloped knowledge artifacts. Bump on any
/// incompatible change to the serialized [`DomainKnowledge`] shape.
pub const KNOWLEDGE_VERSION: u32 = 1;

/// Everything the online digester needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainKnowledge {
    /// Learned message templates.
    pub templates: TemplateSet,
    /// Per-code fallback pseudo-templates for messages that match no
    /// learned template; ids start at `templates.len()`.
    pub fallback_codes: Interner,
    /// Location dictionary learned from configs.
    pub dict: LocationDictionary,
    /// Calibrated temporal parameters.
    pub temporal: TemporalConfig,
    /// Learned association rules.
    pub rules: RuleSet,
    /// Rule/transaction window W in seconds (Table 6: 120 for A, 40 for B).
    pub window_secs: i64,
    /// Historical per-(router, template) message counts — the `f_m` of
    /// §4.2.4 (stored as a Vec for serde friendliness).
    freq: Vec<((u32, u32), u64)>,
    /// Lookup over `freq`; learned keys only, so Fx-hashed.
    #[serde(skip)]
    freq_map: FxHashMap<(u32, u32), u64>,
}

impl DomainKnowledge {
    /// Assemble a knowledge base.
    pub fn new(
        templates: TemplateSet,
        fallback_codes: Interner,
        dict: LocationDictionary,
        temporal: TemporalConfig,
        rules: RuleSet,
        window_secs: i64,
        freq_map: HashMap<(u32, u32), u64>,
    ) -> Self {
        let mut freq: Vec<((u32, u32), u64)> = freq_map.iter().map(|(&k, &v)| (k, v)).collect();
        freq.sort_unstable();
        DomainKnowledge {
            templates,
            fallback_codes,
            dict,
            temporal,
            rules,
            window_secs,
            freq,
            freq_map: freq_map.into_iter().collect(),
        }
    }

    /// Rebuild all skipped lookup structures (after deserialization).
    pub fn rebuild_index(&mut self) {
        self.templates.rebuild_index();
        self.fallback_codes.rebuild_index();
        self.dict.rebuild_index();
        self.rules.rebuild_index();
        self.freq_map = self.freq.iter().copied().collect();
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON (indexes rebuilt).
    pub fn from_json(text: &str) -> serde_json::Result<Self> {
        let mut k: DomainKnowledge = serde_json::from_str(text)?;
        k.rebuild_index();
        Ok(k)
    }

    /// Persist to `path` inside the checksummed artifact envelope
    /// (kind `KNOW`, version [`KNOWLEDGE_VERSION`]), atomically.
    pub fn save(&self, path: &std::path::Path) -> Result<(), ArtifactError> {
        let json = self
            .to_json()
            .map_err(|e| ArtifactError::at(path, EnvelopeError::Payload(e.to_string())))?;
        envelope::save_atomic(
            path,
            ArtifactKind::KNOWLEDGE,
            KNOWLEDGE_VERSION,
            json.as_bytes(),
        )
    }

    /// Load from `path`, an enveloped artifact written by
    /// [`DomainKnowledge::save`]; a file without the envelope fails with
    /// [`EnvelopeError::BadMagic`].
    /// Truncation, bit flips, kind confusion (e.g. pointing `--knowledge`
    /// at a checkpoint) and version skew all surface as typed
    /// [`ArtifactError`]s carrying the file path.
    pub fn load(path: &std::path::Path) -> Result<Self, ArtifactError> {
        let bytes = envelope::load_bytes(path)?;
        let payload = envelope::decode(&bytes, ArtifactKind::KNOWLEDGE, KNOWLEDGE_VERSION)
            .map_err(|e| ArtifactError::at(path, e))?;
        let text = std::str::from_utf8(payload)
            .map_err(|e| ArtifactError::at(path, EnvelopeError::Payload(e.to_string())))?;
        Self::from_json(text)
            .map_err(|e| ArtifactError::at(path, EnvelopeError::Payload(e.to_string())))
    }

    /// Structural fingerprint of this knowledge base (FNV-1a over the
    /// learned-component shapes and calibrated parameters).
    ///
    /// Stored inside stream checkpoints so a snapshot is never resumed
    /// against a *different* knowledge base — template/location/rule ids
    /// are dense indexes, and replaying them against another base would
    /// silently mis-group rather than fail.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.templates.len() as u64);
        mix(self.fallback_codes.len() as u64);
        mix(self.dict.len() as u64);
        mix(self.rules.len() as u64);
        mix(self.window_secs as u64);
        mix(self.temporal.alpha.to_bits());
        mix(self.temporal.beta.to_bits());
        mix(self.temporal.s_min as u64);
        mix(self.temporal.s_max as u64);
        mix(self.freq.len() as u64);
        h
    }

    /// Resolve a message's template: learned template if one matches, the
    /// per-code fallback if the code was seen in training, otherwise
    /// [`UNKNOWN_TEMPLATE`].
    pub fn resolve_template(&self, code: &ErrorCode, detail: &str) -> TemplateId {
        let mut toks = TokenScratch::new();
        toks.tokenize(detail);
        self.resolve_template_with(code, detail, &toks)
    }

    /// [`DomainKnowledge::resolve_template`] reading the tokens of
    /// `detail` from `toks` (already filled by `toks.tokenize(detail)`),
    /// so batch loops resolve every message allocation-free.
    pub fn resolve_template_with(
        &self,
        code: &ErrorCode,
        detail: &str,
        toks: &TokenScratch,
    ) -> TemplateId {
        if let Some(t) = self.templates.match_tokens(code, detail, toks) {
            return t;
        }
        match self.fallback_codes.get(code.as_str()) {
            Some(i) => TemplateId(self.templates.len() as u32 + i),
            None => UNKNOWN_TEMPLATE,
        }
    }

    /// Human-readable signature of a template id (learned masked string,
    /// `code/*` for fallbacks, `?` for unknown).
    pub fn template_signature(&self, t: TemplateId) -> String {
        if t == UNKNOWN_TEMPLATE {
            return "?".to_owned();
        }
        let n = self.templates.len() as u32;
        if t.0 < n {
            self.templates.get(t).masked()
        } else {
            format!("{} *", self.fallback_codes.resolve(t.0 - n))
        }
    }

    /// Historical frequency `f_m` of template `t` on `router` (min 1).
    pub fn frequency(&self, router: RouterId, t: TemplateId) -> u64 {
        self.freq_map.get(&(router.0, t.0)).copied().unwrap_or(1)
    }

    /// Fold additional per-(router, template) observation counts into the
    /// frequency table (used by the weekly refresh as new history accrues).
    pub fn merge_frequencies(&mut self, items: impl IntoIterator<Item = ((u32, u32), u64)>) {
        for (key, n) in items {
            *self.freq_map.entry(key).or_insert(0) += n;
        }
        self.freq = self.freq_map.iter().map(|(&k, &v)| (k, v)).collect();
        self.freq.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_templates::{learn, LearnerConfig};

    fn tiny_knowledge() -> DomainKnowledge {
        let msgs: Vec<sd_model::RawMessage> = (0..30)
            .map(|i| {
                sd_model::RawMessage::new(
                    sd_model::Timestamp(i),
                    "r1",
                    ErrorCode::from("LINK-3-UPDOWN"),
                    format!("Interface Serial{i}/0, changed state to down"),
                )
            })
            .collect();
        let templates = learn(&msgs, &LearnerConfig::default());
        let mut fallback = Interner::new();
        fallback.intern("LINK-3-UPDOWN");
        fallback.intern("SYS-1-CPURISINGTHRESHOLD");
        let dict = LocationDictionary::build(&["hostname r1\n".to_owned()]);
        let mut freq = HashMap::new();
        freq.insert((0u32, 0u32), 30u64);
        DomainKnowledge::new(
            templates,
            fallback,
            dict,
            TemporalConfig::dataset_a(),
            RuleSet::default(),
            120,
            freq,
        )
    }

    #[test]
    fn resolve_prefers_learned_template() {
        let k = tiny_knowledge();
        let t = k.resolve_template(
            &ErrorCode::from("LINK-3-UPDOWN"),
            "Interface Serial9/0, changed state to down",
        );
        assert!(t.0 < k.templates.len() as u32);
        assert_eq!(
            k.template_signature(t),
            "LINK-3-UPDOWN Interface * changed state to down"
        );
    }

    #[test]
    fn resolve_falls_back_per_code() {
        let k = tiny_knowledge();
        // Known code, never-seen shape.
        let t = k.resolve_template(&ErrorCode::from("SYS-1-CPURISINGTHRESHOLD"), "whatever");
        assert_eq!(t.0, k.templates.len() as u32 + 1);
        assert_eq!(k.template_signature(t), "SYS-1-CPURISINGTHRESHOLD *");
        // Unknown code.
        let u = k.resolve_template(&ErrorCode::from("NEVER-1-SEEN"), "x");
        assert_eq!(u, UNKNOWN_TEMPLATE);
        assert_eq!(k.template_signature(u), "?");
    }

    #[test]
    fn frequency_defaults_to_one() {
        let k = tiny_knowledge();
        assert_eq!(k.frequency(RouterId(0), TemplateId(0)), 30);
        assert_eq!(k.frequency(RouterId(5), TemplateId(0)), 1);
    }

    #[test]
    fn merge_frequencies_accumulates_and_survives_serde() {
        let mut k = tiny_knowledge();
        assert_eq!(k.frequency(RouterId(0), TemplateId(0)), 30);
        k.merge_frequencies([((0u32, 0u32), 12u64), ((3, 9), 4)]);
        assert_eq!(k.frequency(RouterId(0), TemplateId(0)), 42);
        assert_eq!(k.frequency(RouterId(3), TemplateId(9)), 4);
        let back = DomainKnowledge::from_json(&k.to_json().unwrap()).unwrap();
        assert_eq!(back.frequency(RouterId(0), TemplateId(0)), 42);
    }

    #[test]
    fn enveloped_save_load_roundtrips_and_rejects_damage() {
        let dir = std::env::temp_dir().join("sd_knowledge_envelope_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("knowledge.bin");
        let k = tiny_knowledge();
        k.save(&path).unwrap();
        let back = DomainKnowledge::load(&path).unwrap();
        assert_eq!(back.fingerprint(), k.fingerprint());

        // A flipped payload bit is a checksum mismatch, not a misdecode.
        let bytes = std::fs::read(&path).unwrap();
        let mut dam = bytes.clone();
        let last = dam.len() - 1;
        dam[last] ^= 0x04;
        std::fs::write(&path, &dam).unwrap();
        let err = DomainKnowledge::load(&path).unwrap_err();
        assert!(matches!(err.error, EnvelopeError::ChecksumMismatch { .. }));
        assert!(err.to_string().contains("knowledge.bin"));

        // Pointing at a checkpoint artifact is a kind mismatch.
        let ck = dir.join("not-knowledge.bin");
        std::fs::write(
            &ck,
            envelope::encode(ArtifactKind::CHECKPOINT, KNOWLEDGE_VERSION, b"{}"),
        )
        .unwrap();
        let err = DomainKnowledge::load(&ck).unwrap_err();
        assert!(matches!(err.error, EnvelopeError::KindMismatch { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Bare JSON (no envelope) is not an artifact: both loaders reject it
    /// as bad magic instead of parsing it.
    #[test]
    fn raw_json_artifacts_fail_with_bad_magic() {
        use crate::checkpoint::{CheckpointError, StreamSnapshot};
        use crate::grouping::GroupingConfig;
        use crate::stream::StreamDigester;
        let dir = std::env::temp_dir().join("sd_raw_json_artifact_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let k = tiny_knowledge();

        let kpath = dir.join("knowledge.json");
        std::fs::write(&kpath, k.to_json().unwrap()).unwrap();
        let err = DomainKnowledge::load(&kpath).unwrap_err();
        assert_eq!(err.error, EnvelopeError::BadMagic);

        let snap = StreamDigester::new(&k, GroupingConfig::default(), 0).checkpoint();
        let spath = dir.join("run.ckpt");
        std::fs::write(&spath, snap.to_json().unwrap()).unwrap();
        match StreamSnapshot::load(&spath) {
            Err(CheckpointError::Artifact(e)) => assert_eq!(e.error, EnvelopeError::BadMagic),
            other => panic!("expected bad magic, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_roundtrip_preserves_behavior() {
        let k = tiny_knowledge();
        let json = k.to_json().unwrap();
        let back = DomainKnowledge::from_json(&json).unwrap();
        let t = back.resolve_template(
            &ErrorCode::from("LINK-3-UPDOWN"),
            "Interface Serial3/0, changed state to down",
        );
        assert!(t.0 < back.templates.len() as u32);
        assert_eq!(back.frequency(RouterId(0), TemplateId(0)), 30);
        assert_eq!(back.window_secs, 120);
    }
}
