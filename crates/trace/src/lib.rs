//! `gom-trace` — a deterministic seeded evolution-trace generator.
//!
//! The paper argues schema evolution must coexist with live query load;
//! measuring that needs *realistic* evolution traffic, not uniform noise.
//! Piccioni et al.'s empirical study of class evolution in long-lived
//! object bases (see PAPERS.md) found a heavily skewed operation mix:
//! attribute and class **additions dominate**, deletions are moderate,
//! while **renames and type changes are rare but expensive** (each one
//! fans out into impact analysis and, on the wire, a delete/add pair).
//! [`MixWeights::piccioni`] encodes that distribution; the generator
//! draws a multi-year history compressed into `sessions` commit-sized
//! batches, interleaved with query/check/digest read load.
//!
//! Everything is driven by one `SplitMix64` seed: the same
//! [`TraceConfig`] always yields a byte-identical [`Trace::render`]
//! (tested), so an SLO run is reproducible in op sequence from its seed
//! and two machines can compare numbers for *the same* workload.
//!
//! The crate is symbolic and dependency-free: ops are plain strings in
//! user vocabulary (`T@S` type references, GOM source text), with no
//! knowledge of the wire protocol — the load driver in `gom-bench` maps
//! [`TraceOp`] onto gom-wire requests. The generator tracks a symbolic
//! schema state (which types exist, which attributes each has) so every
//! generated op is valid when replayed in order: deletes never target a
//! missing attribute, renames never collide, and deleted types only ever
//! had builtin-domain attributes (safe under `restrict` semantics).

/// Weighted operation mix (relative weights, not percentages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MixWeights {
    /// Add an attribute to an existing type.
    pub add_attr: u32,
    /// Define a new type (in its own fresh schema).
    pub add_type: u32,
    /// Delete an existing attribute.
    pub del_attr: u32,
    /// Delete an existing type (`restrict` semantics).
    pub del_type: u32,
    /// Rename an attribute (replayed as delete + add, same domain).
    pub rename_attr: u32,
    /// Change an attribute's domain (replayed as delete + add).
    pub retype_attr: u32,
}

impl MixWeights {
    /// The empirical distribution from Piccioni et al.: additions
    /// dominate (~65%), deletions are moderate (~20%), renames and type
    /// changes are rare (~15% combined).
    pub fn piccioni() -> MixWeights {
        MixWeights {
            add_attr: 40,
            add_type: 25,
            del_attr: 15,
            del_type: 5,
            rename_attr: 7,
            retype_attr: 8,
        }
    }

    /// Sum of all weights (0 is rejected by [`generate`]).
    pub fn total(&self) -> u64 {
        [
            self.add_attr,
            self.add_type,
            self.del_attr,
            self.del_type,
            self.rename_attr,
            self.retype_attr,
        ]
        .iter()
        .map(|&w| u64::from(w))
        .sum()
    }
}

impl Default for MixWeights {
    fn default() -> MixWeights {
        MixWeights::piccioni()
    }
}

/// Trace generation parameters.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// PRNG seed — same seed, same config ⇒ byte-identical trace.
    pub seed: u64,
    /// Number of evolution sessions (commit-sized op batches).
    pub sessions: usize,
    /// Operations per session are drawn uniformly from
    /// `[1, max_ops_per_session]`.
    pub max_ops_per_session: usize,
    /// Read ops (query/check/digest) interleaved per session.
    pub reads_per_session: usize,
    /// Types created before session 0 so the early mix is not forced
    /// into additions (deletes need something to delete).
    pub bootstrap_types: usize,
    /// Starting value for the global name counters. A multi-writer load
    /// driver generates one trace per writer; giving each a disjoint
    /// range (e.g. `writer_index * 1_000_000`) guarantees two writers
    /// never collide on a schema/type/attribute name, so their sessions
    /// commute regardless of commit interleaving.
    pub name_offset: u64,
    /// The operation mix.
    pub mix: MixWeights,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            seed: 0x9E37_79B9,
            sessions: 200,
            max_ops_per_session: 4,
            reads_per_session: 3,
            bootstrap_types: 6,
            name_offset: 0,
            mix: MixWeights::piccioni(),
        }
    }
}

/// One evolution operation, in user vocabulary. `ty` references are
/// always fully qualified (`Name@Schema`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// Define a new type `ty` in a fresh schema `schema`, with the given
    /// `(name, builtin-domain)` attributes. Replayed as GOM source
    /// ([`TraceOp::gom_source`]).
    DefineType {
        /// Schema name (fresh per type: re-defining an existing schema
        /// is an error in the analyzer).
        schema: String,
        /// Type name.
        ty: String,
        /// Initial attributes as `(name, domain)` pairs.
        attrs: Vec<(String, String)>,
    },
    /// Add attribute `name : domain` to `ty`.
    AddAttr {
        /// Qualified type reference.
        ty: String,
        /// New attribute name.
        name: String,
        /// Builtin domain name.
        domain: String,
    },
    /// Delete attribute `name` from `ty`.
    DelAttr {
        /// Qualified type reference.
        ty: String,
        /// Attribute name.
        name: String,
    },
    /// Delete `ty` entirely (`restrict` semantics — generated types only
    /// carry builtin-domain attributes, so nothing references them).
    DelType {
        /// Qualified type reference.
        ty: String,
    },
    /// Rename attribute `from` to `to` on `ty` (domain preserved).
    /// The wire has no rename primitive: replay as DelAttr + AddAttr.
    RenameAttr {
        /// Qualified type reference.
        ty: String,
        /// Old attribute name.
        from: String,
        /// New attribute name.
        to: String,
        /// The attribute's (unchanged) domain.
        domain: String,
    },
    /// Change attribute `name`'s domain on `ty`. Replay as DelAttr +
    /// AddAttr with the new domain.
    RetypeAttr {
        /// Qualified type reference.
        ty: String,
        /// Attribute name.
        name: String,
        /// Previous domain.
        from_domain: String,
        /// New domain (differs from `from_domain`).
        to_domain: String,
    },
}

impl TraceOp {
    /// Stable kind name (the mix-accounting key).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceOp::DefineType { .. } => "add_type",
            TraceOp::AddAttr { .. } => "add_attr",
            TraceOp::DelAttr { .. } => "del_attr",
            TraceOp::DelType { .. } => "del_type",
            TraceOp::RenameAttr { .. } => "rename_attr",
            TraceOp::RetypeAttr { .. } => "retype_attr",
        }
    }

    /// GOM source for a [`TraceOp::DefineType`] (`None` for other ops).
    pub fn gom_source(&self) -> Option<String> {
        let TraceOp::DefineType { schema, ty, attrs } = self else {
            return None;
        };
        let mut src = format!("schema {schema} is\n  type {ty} is\n    [ ");
        for (name, domain) in attrs {
            src.push_str(&format!("{name} : {domain}; "));
        }
        src.push_str(&format!("]\n  end type {ty};\nend schema {schema};\n"));
        Some(src)
    }
}

/// One read operation interleaved with the write load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOp {
    /// Datalog query body against the published snapshot.
    Query(String),
    /// Full consistency check of the published snapshot.
    Check,
    /// Epoch + state digest.
    Digest,
}

/// One evolution session: the write ops committed as a batch, plus the
/// read ops a concurrent reader interleaves while the session runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Session {
    /// Write ops, applied in order inside one BES…EES bracket.
    pub ops: Vec<TraceOp>,
    /// Read load interleaved with this session.
    pub reads: Vec<ReadOp>,
}

/// A generated trace: `sessions` write batches with interleaved reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The seed that produced this trace.
    pub seed: u64,
    /// The sessions, in replay order.
    pub sessions: Vec<Session>,
}

/// SplitMix64 — the same stream as `gom_obs::SplitMix64`, kept private
/// because this crate has no dependencies (one would rewrite
/// `gomd_bench/Cargo.lock`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (bound ≥ 1).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

const DOMAINS: [&str; 3] = ["int", "float", "string"];

/// Symbolic state of one generated type.
struct TypeState {
    schema: String,
    name: String,
    attrs: Vec<(String, String)>,
}

impl TypeState {
    fn qualified(&self) -> String {
        format!("{}@{}", self.name, self.schema)
    }
}

/// The generator: symbolic schema state + global name counters, so every
/// emitted name is fresh and the op stream is valid by construction.
struct Gen {
    rng: Rng,
    types: Vec<TypeState>,
    next_type: u64,
    next_attr: u64,
}

impl Gen {
    fn new(seed: u64, name_offset: u64) -> Gen {
        Gen {
            rng: Rng(seed),
            types: Vec::new(),
            next_type: name_offset,
            next_attr: name_offset,
        }
    }

    fn fresh_attr(&mut self) -> String {
        let n = self.next_attr;
        self.next_attr += 1;
        format!("a{n}")
    }

    fn domain(&mut self) -> String {
        DOMAINS[self.rng.below(DOMAINS.len() as u64) as usize].to_string()
    }

    fn define_type(&mut self) -> TraceOp {
        let n = self.next_type;
        self.next_type += 1;
        // One fresh schema per type: the analyzer rejects re-defining an
        // existing schema, and per-type schemas keep deletes independent.
        let schema = format!("Load{n}");
        let ty = format!("T{n}");
        let attr_count = 1 + self.rng.below(3) as usize;
        let attrs: Vec<(String, String)> = (0..attr_count)
            .map(|_| {
                let a = self.fresh_attr();
                let d = self.domain();
                (a, d)
            })
            .collect();
        self.types.push(TypeState {
            schema: schema.clone(),
            name: ty.clone(),
            attrs: attrs.clone(),
        });
        TraceOp::DefineType { schema, ty, attrs }
    }

    /// Index of a random type that has at least one attribute.
    fn type_with_attr(&mut self) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.types.len())
            .filter(|&i| !self.types[i].attrs.is_empty())
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[self.rng.below(candidates.len() as u64) as usize])
    }

    /// Draw one op per the mix, falling back to `add_type` when the
    /// drawn kind has no valid target yet (empty base, attr-less types).
    fn draw_op(&mut self, mix: &MixWeights) -> TraceOp {
        let roll = self.rng.below(mix.total());
        let mut acc = u64::from(mix.add_attr);
        if roll < acc {
            if let Some(i) = self.type_with_attr().or(if self.types.is_empty() {
                None
            } else {
                Some(self.rng.below(self.types.len() as u64) as usize)
            }) {
                let name = self.fresh_attr();
                let domain = self.domain();
                let t = &mut self.types[i];
                t.attrs.push((name.clone(), domain.clone()));
                return TraceOp::AddAttr {
                    ty: self.types[i].qualified(),
                    name,
                    domain,
                };
            }
            return self.define_type();
        }
        acc += u64::from(mix.add_type);
        if roll < acc {
            return self.define_type();
        }
        acc += u64::from(mix.del_attr);
        if roll < acc {
            if let Some(i) = self.type_with_attr() {
                let t = &mut self.types[i];
                let k = self.rng.below(t.attrs.len() as u64) as usize;
                let (name, _) = self.types[i].attrs.remove(k);
                return TraceOp::DelAttr {
                    ty: self.types[i].qualified(),
                    name,
                };
            }
            return self.define_type();
        }
        acc += u64::from(mix.del_type);
        if roll < acc {
            // Keep at least two types alive so the base never drains.
            if self.types.len() > 2 {
                let i = self.rng.below(self.types.len() as u64) as usize;
                let t = self.types.remove(i);
                return TraceOp::DelType { ty: t.qualified() };
            }
            return self.define_type();
        }
        acc += u64::from(mix.rename_attr);
        if roll < acc {
            if let Some(i) = self.type_with_attr() {
                let to = self.fresh_attr();
                let t = &mut self.types[i];
                let k = self.rng.below(t.attrs.len() as u64) as usize;
                let (from, domain) = t.attrs[k].clone();
                t.attrs[k] = (to.clone(), domain.clone());
                return TraceOp::RenameAttr {
                    ty: self.types[i].qualified(),
                    from,
                    to,
                    domain,
                };
            }
            return self.define_type();
        }
        // retype_attr
        if let Some(i) = self.type_with_attr() {
            let t = &mut self.types[i];
            let k = self.rng.below(t.attrs.len() as u64) as usize;
            let (name, from_domain) = t.attrs[k].clone();
            let to_domain = DOMAINS
                .iter()
                .map(|d| d.to_string())
                .cycle()
                .skip_while(|d| *d != from_domain)
                .nth(1 + self.rng.below(DOMAINS.len() as u64 - 1) as usize % (DOMAINS.len() - 1))
                .unwrap_or_else(|| DOMAINS[0].to_string());
            t.attrs[k] = (name.clone(), to_domain.clone());
            return TraceOp::RetypeAttr {
                ty: self.types[i].qualified(),
                name,
                from_domain,
                to_domain,
            };
        }
        self.define_type()
    }

    fn draw_read(&mut self) -> ReadOp {
        match self.rng.below(4) {
            0 => ReadOp::Check,
            1 => ReadOp::Digest,
            2 => ReadOp::Query("Type(T, N, S)".to_string()),
            _ => ReadOp::Query("Attr(T, N, D)".to_string()),
        }
    }
}

/// Generate a trace from `cfg`. Deterministic: equal configs yield equal
/// (byte-identical once rendered) traces.
pub fn generate(cfg: &TraceConfig) -> Trace {
    let mut g = Gen::new(cfg.seed, cfg.name_offset);
    let mut sessions = Vec::with_capacity(cfg.sessions);
    let mix = if cfg.mix.total() == 0 {
        MixWeights::piccioni()
    } else {
        cfg.mix
    };
    for s in 0..cfg.sessions {
        let mut session = Session::default();
        if s == 0 {
            for _ in 0..cfg.bootstrap_types {
                session.ops.push(g.define_type());
            }
        }
        let ops = 1 + g.rng.below(cfg.max_ops_per_session.max(1) as u64) as usize;
        for _ in 0..ops {
            let op = g.draw_op(&mix);
            session.ops.push(op);
        }
        for _ in 0..cfg.reads_per_session {
            session.reads.push(g.draw_read());
        }
        sessions.push(session);
    }
    Trace {
        seed: cfg.seed,
        sessions,
    }
}

impl Trace {
    /// Total number of write ops across all sessions.
    pub fn op_count(&self) -> usize {
        self.sessions.iter().map(|s| s.ops.len()).sum()
    }

    /// Op counts by kind, as `(kind, count)` in mix order.
    pub fn op_mix_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts = [
            ("add_attr", 0u64),
            ("add_type", 0u64),
            ("del_attr", 0u64),
            ("del_type", 0u64),
            ("rename_attr", 0u64),
            ("retype_attr", 0u64),
        ];
        for s in &self.sessions {
            for op in &s.ops {
                let kind = op.kind();
                for c in &mut counts {
                    if c.0 == kind {
                        c.1 += 1;
                    }
                }
            }
        }
        counts.to_vec()
    }

    /// Render the trace as deterministic text — the byte-identity anchor
    /// for the determinism guarantee, and a human-auditable record of the
    /// exact replayed workload.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# gom-trace/v1 seed={} sessions={}\n",
            self.seed,
            self.sessions.len()
        );
        for (i, s) in self.sessions.iter().enumerate() {
            out.push_str(&format!("session {i}\n"));
            for op in &s.ops {
                match op {
                    TraceOp::DefineType { schema, ty, attrs } => {
                        out.push_str(&format!("  op add-type {ty}@{schema}"));
                        for (a, d) in attrs {
                            out.push_str(&format!(" {a}:{d}"));
                        }
                        out.push('\n');
                    }
                    TraceOp::AddAttr { ty, name, domain } => {
                        out.push_str(&format!("  op add-attr {ty} {name} {domain}\n"));
                    }
                    TraceOp::DelAttr { ty, name } => {
                        out.push_str(&format!("  op del-attr {ty} {name}\n"));
                    }
                    TraceOp::DelType { ty } => {
                        out.push_str(&format!("  op del-type {ty} restrict\n"));
                    }
                    TraceOp::RenameAttr {
                        ty,
                        from,
                        to,
                        domain,
                    } => {
                        out.push_str(&format!("  op rename-attr {ty} {from} {to} {domain}\n"));
                    }
                    TraceOp::RetypeAttr {
                        ty,
                        name,
                        from_domain,
                        to_domain,
                    } => {
                        out.push_str(&format!(
                            "  op retype-attr {ty} {name} {from_domain} {to_domain}\n"
                        ));
                    }
                }
            }
            for r in &s.reads {
                match r {
                    ReadOp::Query(q) => out.push_str(&format!("  read query {q}\n")),
                    ReadOp::Check => out.push_str("  read check\n"),
                    ReadOp::Digest => out.push_str("  read digest\n"),
                }
            }
        }
        out
    }

    /// CRC-32 (IEEE) of the rendered trace — a compact fingerprint the
    /// SLO report embeds so two runs can prove they replayed the same
    /// op sequence. Same polynomial as `gom_store::crc32`; local for the
    /// same no-dependency reason as `Rng`.
    pub fn crc32(&self) -> u32 {
        let mut crc: u32 = !0;
        for &b in self.render().as_bytes() {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = TraceConfig {
            seed: 42,
            sessions: 50,
            ..TraceConfig::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.crc32(), b.crc32());
        // A different seed diverges.
        let c = generate(&TraceConfig { seed: 43, ..cfg });
        assert_ne!(a.render(), c.render());
        assert_ne!(a.crc32(), c.crc32());
    }

    #[test]
    fn op_mix_lands_within_tolerance() {
        let cfg = TraceConfig {
            seed: 7,
            sessions: 1500,
            max_ops_per_session: 4,
            reads_per_session: 1,
            bootstrap_types: 8,
            name_offset: 0,
            mix: MixWeights::piccioni(),
        };
        let trace = generate(&cfg);
        let counts: HashMap<&str, u64> = trace.op_mix_counts().into_iter().collect();
        let total: u64 = counts.values().sum();
        assert!(total > 2000, "need a large sample, got {total}");
        let expect = |w: u32| f64::from(w) / cfg.mix.total() as f64;
        // Fallbacks inflate add_type slightly (invalid draws degrade to
        // it), so allow ±5 percentage points around the configured share.
        for (kind, weight) in [
            ("add_attr", cfg.mix.add_attr),
            ("add_type", cfg.mix.add_type),
            ("del_attr", cfg.mix.del_attr),
            ("del_type", cfg.mix.del_type),
            ("rename_attr", cfg.mix.rename_attr),
            ("retype_attr", cfg.mix.retype_attr),
        ] {
            let actual = counts[kind] as f64 / total as f64;
            let want = expect(weight);
            assert!(
                (actual - want).abs() < 0.05,
                "{kind}: got {actual:.3}, want {want:.3} ±0.05"
            );
        }
    }

    /// Replay the symbolic op stream against a model schema map and
    /// verify every op is valid at its point in the sequence.
    #[test]
    fn generated_ops_are_valid_in_order() {
        let cfg = TraceConfig {
            seed: 99,
            sessions: 300,
            ..TraceConfig::default()
        };
        let trace = generate(&cfg);
        let mut state: HashMap<String, Vec<String>> = HashMap::new();
        for s in &trace.sessions {
            for op in &s.ops {
                match op {
                    TraceOp::DefineType { schema, ty, attrs } => {
                        let q = format!("{ty}@{schema}");
                        assert!(!state.contains_key(&q), "redefined {q}");
                        let names: Vec<String> = attrs.iter().map(|(a, _)| a.clone()).collect();
                        let mut dedup = names.clone();
                        dedup.sort();
                        dedup.dedup();
                        assert_eq!(dedup.len(), names.len(), "dup attr in {q}");
                        state.insert(q, names);
                    }
                    TraceOp::AddAttr { ty, name, .. } => {
                        let attrs = state.get_mut(ty).unwrap_or_else(|| panic!("no {ty}"));
                        assert!(!attrs.contains(name), "dup add {name} on {ty}");
                        attrs.push(name.clone());
                    }
                    TraceOp::DelAttr { ty, name } => {
                        let attrs = state.get_mut(ty).unwrap_or_else(|| panic!("no {ty}"));
                        let before = attrs.len();
                        attrs.retain(|a| a != name);
                        assert_eq!(attrs.len(), before - 1, "missing {name} on {ty}");
                    }
                    TraceOp::DelType { ty } => {
                        assert!(state.remove(ty).is_some(), "deleted missing {ty}");
                    }
                    TraceOp::RenameAttr { ty, from, to, .. } => {
                        let attrs = state.get_mut(ty).unwrap_or_else(|| panic!("no {ty}"));
                        assert!(attrs.contains(from), "rename missing {from} on {ty}");
                        assert!(!attrs.contains(to), "rename collision {to} on {ty}");
                        attrs.retain(|a| a != from);
                        attrs.push(to.clone());
                    }
                    TraceOp::RetypeAttr {
                        ty,
                        name,
                        from_domain,
                        to_domain,
                    } => {
                        let attrs = state.get(ty).unwrap_or_else(|| panic!("no {ty}"));
                        assert!(attrs.contains(name), "retype missing {name} on {ty}");
                        assert_ne!(from_domain, to_domain, "no-op retype on {ty}");
                    }
                }
            }
        }
    }

    #[test]
    fn gom_source_emission_matches_the_grammar_shape() {
        let op = TraceOp::DefineType {
            schema: "Load0".into(),
            ty: "T0".into(),
            attrs: vec![("a0".into(), "int".into()), ("a1".into(), "string".into())],
        };
        let src = op.gom_source().unwrap();
        assert!(src.starts_with("schema Load0 is"), "{src}");
        assert!(src.contains("type T0 is"), "{src}");
        assert!(src.contains("a0 : int;"), "{src}");
        assert!(src.contains("a1 : string;"), "{src}");
        assert!(src.contains("end type T0;"), "{src}");
        assert!(src.trim_end().ends_with("end schema Load0;"), "{src}");
        assert!(TraceOp::DelType { ty: "x".into() }.gom_source().is_none());
    }

    #[test]
    fn name_offsets_keep_writer_partitions_disjoint() {
        let names = |offset: u64| {
            let cfg = TraceConfig {
                seed: 5,
                sessions: 40,
                name_offset: offset,
                ..TraceConfig::default()
            };
            let mut out = Vec::new();
            for s in generate(&cfg).sessions {
                for op in s.ops {
                    if let TraceOp::DefineType { schema, ty, attrs } = op {
                        out.push(schema);
                        out.push(ty);
                        out.extend(attrs.into_iter().map(|(a, _)| a));
                    }
                }
            }
            out
        };
        let a = names(0);
        let b = names(1_000_000);
        assert!(!a.is_empty() && !b.is_empty());
        for n in &a {
            assert!(!b.contains(n), "name {n} appears in both partitions");
        }
    }

    #[test]
    fn reads_and_sessions_follow_config() {
        let cfg = TraceConfig {
            seed: 1,
            sessions: 30,
            max_ops_per_session: 2,
            reads_per_session: 5,
            bootstrap_types: 3,
            ..TraceConfig::default()
        };
        let t = generate(&cfg);
        assert_eq!(t.sessions.len(), 30);
        for (i, s) in t.sessions.iter().enumerate() {
            assert_eq!(s.reads.len(), 5);
            let max = if i == 0 { 3 + 2 } else { 2 };
            assert!(
                (1..=max).contains(&s.ops.len()),
                "session {i}: {}",
                s.ops.len()
            );
        }
        // Bootstrap types land at the head of session 0.
        assert!(matches!(t.sessions[0].ops[0], TraceOp::DefineType { .. }));
    }
}
