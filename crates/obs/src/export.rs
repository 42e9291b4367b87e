//! JSONL export of the event stream, and its parser.
//!
//! One file per run: the first line is a run-meta object (identified by
//! its `"protocol"` key), every following line one event of the stream
//! the run recorded — the very events the checker validated:
//!
//! ```text
//! {"protocol":"g-2PL","clients":8,"latency":200,...,"fl_consistent":true,"expand_reads":false,"faults":false}
//! {"at":0,"kind":"request_sent","txn":0,"item":3,"site":"C0"}
//! {"at":14,"kind":"window_closed","item":3,"site":"S0","n":4}
//! {"at":30,"kind":"committed","txn":0,"site":"C0","n":1,"measured":true}
//! {"at":35,"kind":"release_arrived","txn":0,"item":3,"site":"S0"}
//! ```
//!
//! An event line carries `at` (ticks), `kind` (a [`TraceKind::name`]),
//! `txn` and `item` (omitted when unset), `site` (`S<shard>` or
//! `C<client>`), `n` (omitted when 0) and `measured` (omitted when
//! false). After the recorded stream come the flight-recorder
//! `slow_txn` markers ([`flight_markers`]). The meta line's
//! `fl_consistent`, `expand_reads` and `faults` keys are the run's
//! [`TraceCheckOpts`], so `trace-explain` re-runs P1–P10 on the file.
//!
//! # Older files
//!
//! Span-only exports, written before the stream was unified, still
//! parse. They have no checker options (the offline check reports SKIP
//! for them) and no `site`: a legacy `"server":true` flag marks
//! server-bound releases, which get site `S0`; every other event gets
//! `C0` (the replay only asks whether a release arrived at a server).
//! Their kind names map onto the stream's kinds:
//!
//! | old name        | kind              |
//! |-----------------|-------------------|
//! | `req_sent`      | `request_sent`    |
//! | `req_arrived`   | `request_arrived` |
//! | `dispatched`    | `fl_ordered`      |
//! | `granted_local` | `cache_hit`       |
//! | `commit_local`  | `committed`       |
//!
//! The old `dispatched` marked the dispatch *decision* — a g-2PL window
//! close, or an s-2PL grant, which recorded `hop_departed` at the same
//! instant — so an old file's phase attribution replays unchanged. The
//! other old names (`hop_departed`, `granted`, `release_arrived`,
//! `window_closed`, `aborted`, `slow_txn`) are current names.
//!
//! The workspace's `serde` is an offline no-op stub, so both directions
//! are implemented by hand. The parser reads files from disk, so it never
//! panics: integers out of range, fractional or negative where an
//! integer belongs, unknown kinds and malformed sites are errors naming
//! the line.

use crate::tracelog::{TraceEvent, TraceKind, MAX_EVENTS};
use crate::tracker::{TxnDetail, FLIGHT_K};
use g2pl_simcore::{ClientId, ItemId, SimTime, SiteId, TxnId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What the temporal checker may assume about the run that produced a
/// trace; exported in the meta line so the check also runs offline.
///
/// P6 and P7 are properties of specific g-2PL option sets — a FIFO-ordered
/// run legitimately produces mutually inconsistent forward lists, and an
/// `expand_reads` run legitimately extends dispatched lists. Derive the
/// options from the run's config with [`TraceCheckOpts::for_config`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCheckOpts {
    /// The run used consistent (DAG-respecting) window-close ordering, so
    /// pairwise forward-list order must agree across items (P6).
    pub fl_consistent: bool,
    /// The run used the read-expansion variant, so `FlExtended` events
    /// are legal (P7 still requires them to target a dispatched list).
    pub expand_reads: bool,
    /// The run had an active fault plan: fault/recovery events are legal
    /// and P8–P10 are enforced. When false, any fault, recovery or 2PC
    /// event is a violation — a reliable network must never take
    /// recovery actions.
    pub faults: bool,
}

impl Default for TraceCheckOpts {
    /// The paper's evaluated g-2PL: consistent reordering, no read
    /// expansion, reliable network.
    fn default() -> Self {
        TraceCheckOpts {
            fl_consistent: true,
            expand_reads: false,
            faults: false,
        }
    }
}

impl TraceCheckOpts {
    /// The assumptions appropriate for a run of `cfg`, an engine config
    /// (`g2pl-protocols` defines the conversion next to the config).
    pub fn for_config<'a, C>(cfg: &'a C) -> Self
    where
        TraceCheckOpts: From<&'a C>,
    {
        TraceCheckOpts::from(cfg)
    }
}

/// Run-level metadata heading an exported trace.
#[derive(Clone, Debug, PartialEq)]
pub struct RunMeta {
    /// Protocol label ("s-2PL", "g-2PL", "c-2PL").
    pub protocol: String,
    /// Number of client sites.
    pub clients: u32,
    /// Nominal one-way network latency (simulation units).
    pub latency: u64,
    /// Read probability of the workload.
    pub read_prob: f64,
    /// The replication's seed.
    pub seed: u64,
    /// Transactions committed over the whole run.
    pub committed: u64,
    /// Transactions aborted over the whole run.
    pub aborted: u64,
    /// Measured (post-warm-up) commits.
    pub measured: u64,
    /// Mean response time over measured commits.
    pub mean_response: f64,
    /// Events dropped past the log cap (0 = complete trace).
    pub dropped: u64,
    /// Lease expiries the server resolved by abort + redispatch.
    pub lease_expiries: u64,
    /// Total simulated time items sat idle under a dead holder before a
    /// lease fired (the recovery machinery's latency debt; 0 on a
    /// fault-free run).
    pub recovery_stall: f64,
    /// Server crash/restart cycles survived during the run (0 on plans
    /// without server faults; traces from before server recovery existed
    /// parse as 0).
    pub server_crashes: u64,
    /// Engine-side 99th-percentile response time in ticks (from the
    /// run's quantile sketch; traces from before tail telemetry existed
    /// parse as 0).
    pub response_p99: u64,
    /// Engine-side 99.9th-percentile response time in ticks (0 on old
    /// traces, like [`response_p99`](Self::response_p99)).
    pub response_p999: u64,
    /// The checker options of the run; `None` for span-only exports,
    /// which cannot be checked offline.
    pub check: Option<TraceCheckOpts>,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Render one event as a single JSON line (no trailing newline).
pub fn event_to_json(ev: &TraceEvent) -> String {
    let mut s = format!("{{\"at\":{},\"kind\":\"{}\"", ev.at.units(), ev.kind.name());
    if let Some(t) = ev.txn {
        let _ = write!(s, ",\"txn\":{}", t.0);
    }
    if let Some(i) = ev.item {
        let _ = write!(s, ",\"item\":{}", i.0);
    }
    let _ = match ev.site {
        SiteId::Server(shard) => write!(s, ",\"site\":\"S{}\"", shard.0),
        SiteId::Client(c) => write!(s, ",\"site\":\"C{}\"", c.0),
    };
    if ev.n != 0 {
        let _ = write!(s, ",\"n\":{}", ev.n);
    }
    if ev.measured {
        s.push_str(",\"measured\":true");
    }
    s.push('}');
    s
}

/// Render a whole trace (meta line + one line per event).
pub fn write_jsonl(meta: &RunMeta, events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 * (events.len() + 1));
    let _ = write!(
        out,
        "{{\"protocol\":\"{}\",\"clients\":{},\"latency\":{},\"read_prob\":{},\"seed\":{},\
         \"committed\":{},\"aborted\":{},\"measured\":{},\"mean_response\":{},\"dropped\":{},\
         \"lease_expiries\":{},\"recovery_stall\":{},\"server_crashes\":{},\
         \"response_p99\":{},\"response_p999\":{}",
        meta.protocol.replace(['"', '\\'], "_"),
        meta.clients,
        meta.latency,
        json_f64(meta.read_prob),
        meta.seed,
        meta.committed,
        meta.aborted,
        meta.measured,
        json_f64(meta.mean_response),
        meta.dropped,
        meta.lease_expiries,
        json_f64(meta.recovery_stall),
        meta.server_crashes,
        meta.response_p99,
        meta.response_p999,
    );
    if let Some(c) = meta.check {
        let _ = write!(
            out,
            ",\"fl_consistent\":{},\"expand_reads\":{},\"faults\":{}",
            c.fl_consistent, c.expand_reads, c.faults
        );
    }
    out.push_str("}\n");
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// Synthesize the flight-recorder marker events appended after a trace's
/// recorded stream: one [`TraceKind::SlowTxn`] per retained transaction,
/// stamped at its commit-return end with `n` = 1-based rank (1 =
/// slowest). The exporter writes them, not a site, so they carry `S0`.
/// Tail analyzers read these to find the worst transactions without
/// recomputing the top-k.
pub fn flight_markers(flight: &[TxnDetail]) -> Vec<TraceEvent> {
    flight
        .iter()
        .enumerate()
        .map(|(i, d)| TraceEvent {
            n: (i + 1) as u32,
            measured: d.measured,
            ..TraceKind::SlowTxn.at(d.end, Some(d.txn), None, SiteId::SERVER0)
        })
        .collect()
}

/// A parsed trace file.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// The run-meta heading.
    pub meta: RunMeta,
    /// The events, in file order (= time order, then the markers).
    pub events: Vec<TraceEvent>,
}

/// Kind names of span-only exports and the kinds they map onto (see the
/// module docs).
const LEGACY_KINDS: [(&str, TraceKind); 5] = [
    ("req_sent", TraceKind::RequestSent),
    ("req_arrived", TraceKind::RequestArrived),
    ("dispatched", TraceKind::FlOrdered),
    ("granted_local", TraceKind::CacheHit),
    ("commit_local", TraceKind::Committed),
];

/// A flat JSON value (this format nests nothing).
#[derive(Clone, Debug, PartialEq)]
enum Val {
    Str(String),
    /// A numeric literal that is exactly a `u64` (no sign, fraction or
    /// exponent) — kept separate so 64-bit seeds survive round-trips
    /// that `f64`'s 53-bit mantissa would silently corrupt.
    Int(u64),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parse one flat JSON object line into a key → value map.
fn parse_object(line: &str) -> Result<BTreeMap<String, Val>, String> {
    let mut out = BTreeMap::new();
    let b = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let err = |what: &str, at: usize| format!("{what} at byte {at}: {line:.60}");
    skip_ws(&mut i);
    if i >= b.len() || b[i] != b'{' {
        return Err(err("expected '{'", i));
    }
    i += 1;
    skip_ws(&mut i);
    if i < b.len() && b[i] == b'}' {
        return Ok(out);
    }
    loop {
        skip_ws(&mut i);
        // Key (no escapes are ever emitted in keys).
        if i >= b.len() || b[i] != b'"' {
            return Err(err("expected key quote", i));
        }
        i += 1;
        let key_start = i;
        while i < b.len() && b[i] != b'"' {
            i += 1;
        }
        if i >= b.len() {
            return Err(err("unterminated key", key_start));
        }
        let key = line[key_start..i].to_string();
        i += 1;
        skip_ws(&mut i);
        if i >= b.len() || b[i] != b':' {
            return Err(err("expected ':'", i));
        }
        i += 1;
        skip_ws(&mut i);
        // Value.
        let val = if i < b.len() && b[i] == b'"' {
            i += 1;
            let vs = i;
            while i < b.len() && b[i] != b'"' {
                i += 1;
            }
            if i >= b.len() {
                return Err(err("unterminated string", vs));
            }
            let v = Val::Str(line[vs..i].to_string());
            i += 1;
            v
        } else if line[i..].starts_with("true") {
            i += 4;
            Val::Bool(true)
        } else if line[i..].starts_with("false") {
            i += 5;
            Val::Bool(false)
        } else if line[i..].starts_with("null") {
            i += 4;
            Val::Null
        } else {
            let ns = i;
            while i < b.len() && matches!(b[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                i += 1;
            }
            let lit = &line[ns..i];
            if let Ok(n) = lit.parse::<u64>() {
                Val::Int(n)
            } else {
                Val::Num(lit.parse::<f64>().map_err(|_| err("bad number", ns))?)
            }
        };
        out.insert(key, val);
        skip_ws(&mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(out),
            _ => return Err(err("expected ',' or '}'", i)),
        }
    }
}

/// One parsed line with typed, line-numbered field accessors. Absent
/// and `null` fields read as `None`; a present field of the wrong shape
/// is an error, never a silent default.
struct Fields {
    map: BTreeMap<String, Val>,
    line: usize,
}

impl Fields {
    fn err(&self, msg: &str) -> String {
        format!("line {}: {msg}", self.line)
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.map.get(key) {
            None | Some(Val::Null) => Ok(None),
            Some(Val::Int(n)) => Ok(Some(*n)),
            Some(v) => Err(self.err(&format!(
                "\"{key}\" must be a non-negative integer, got {v:?}"
            ))),
        }
    }

    fn opt_u32(&self, key: &str) -> Result<Option<u32>, String> {
        self.opt_u64(key)?
            .map(|n| {
                u32::try_from(n).map_err(|_| self.err(&format!("\"{key}\" = {n} exceeds u32")))
            })
            .transpose()
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.map.get(key) {
            None | Some(Val::Null) => Ok(None),
            Some(Val::Int(n)) => Ok(Some(*n as f64)),
            Some(Val::Num(n)) => Ok(Some(*n)),
            Some(v) => Err(self.err(&format!("\"{key}\" must be a number, got {v:?}"))),
        }
    }

    fn opt_bool(&self, key: &str) -> Result<Option<bool>, String> {
        match self.map.get(key) {
            None | Some(Val::Null) => Ok(None),
            Some(Val::Bool(b)) => Ok(Some(*b)),
            Some(v) => Err(self.err(&format!("\"{key}\" must be a boolean, got {v:?}"))),
        }
    }

    fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.map.get(key) {
            None | Some(Val::Null) => Ok(None),
            Some(Val::Str(s)) => Ok(Some(s)),
            Some(v) => Err(self.err(&format!("\"{key}\" must be a string, got {v:?}"))),
        }
    }

    fn required<T>(&self, key: &str, v: Option<T>) -> Result<T, String> {
        v.ok_or_else(|| self.err(&format!("missing \"{key}\"")))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.required(key, self.opt_u64(key)?)
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.required(key, self.opt_f64(key)?)
    }
}

fn parse_meta(f: &Fields) -> Result<RunMeta, String> {
    let protocol = f.required("protocol", f.opt_str("protocol")?)?.to_string();
    let check = match (
        f.opt_bool("fl_consistent")?,
        f.opt_bool("expand_reads")?,
        f.opt_bool("faults")?,
    ) {
        (Some(fl_consistent), Some(expand_reads), Some(faults)) => Some(TraceCheckOpts {
            fl_consistent,
            expand_reads,
            faults,
        }),
        (None, None, None) => None,
        _ => return Err(f.err("meta line carries only some of the checker options")),
    };
    Ok(RunMeta {
        protocol,
        clients: f.required("clients", f.opt_u32("clients")?)?,
        latency: f.u64("latency")?,
        read_prob: f.f64("read_prob")?,
        seed: f.u64("seed")?,
        committed: f.u64("committed")?,
        aborted: f.u64("aborted")?,
        measured: f.u64("measured")?,
        mean_response: f.f64("mean_response")?,
        // Older traces omit the later fields; default them so old exports
        // keep parsing.
        dropped: f.opt_u64("dropped")?.unwrap_or(0),
        lease_expiries: f.opt_u64("lease_expiries")?.unwrap_or(0),
        recovery_stall: f.opt_f64("recovery_stall")?.unwrap_or(0.0),
        server_crashes: f.opt_u64("server_crashes")?.unwrap_or(0),
        response_p99: f.opt_u64("response_p99")?.unwrap_or(0),
        response_p999: f.opt_u64("response_p999")?.unwrap_or(0),
        check,
    })
}

/// `S<shard>` or `C<client>`.
fn parse_site(s: &str) -> Option<SiteId> {
    let (tag, num) = s.split_at_checked(1)?;
    if num.is_empty() || !num.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n: u32 = num.parse().ok()?;
    match tag {
        "S" => Some(SiteId::server(n)),
        "C" => Some(SiteId::Client(ClientId::new(n))),
        _ => None,
    }
}

fn parse_event(f: &Fields) -> Result<TraceEvent, String> {
    let at = f.u64("at")?;
    let name = f.required("kind", f.opt_str("kind")?)?;
    let kind = TraceKind::from_name(name)
        .or_else(|| {
            LEGACY_KINDS
                .iter()
                .find(|(old, _)| *old == name)
                .map(|p| p.1)
        })
        .ok_or_else(|| f.err(&format!("unknown event kind \"{name}\"")))?;
    let site = match f.opt_str("site")? {
        Some(s) => parse_site(s).ok_or_else(|| f.err(&format!("malformed site \"{s}\"")))?,
        None if f.opt_bool("server")?.unwrap_or(false) => SiteId::SERVER0,
        None => SiteId::Client(ClientId::new(0)),
    };
    Ok(TraceEvent {
        n: f.opt_u32("n")?.unwrap_or(0),
        measured: f.opt_bool("measured")?.unwrap_or(false),
        ..kind.at(
            SimTime::new(at),
            f.opt_u32("txn")?.map(TxnId::new),
            f.opt_u32("item")?.map(ItemId::new),
            site,
        )
    })
}

/// Parse a whole exported trace. The first non-empty line must be the
/// run-meta object; at most the log cap plus the flight markers follow.
pub fn parse_jsonl(text: &str) -> Result<TraceFile, String> {
    parse_capped(text, MAX_EVENTS + FLIGHT_K)
}

fn parse_capped(text: &str, cap: usize) -> Result<TraceFile, String> {
    let mut meta: Option<RunMeta> = None;
    let mut events: Vec<TraceEvent> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let map = parse_object(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let f = Fields { map, line: idx + 1 };
        if meta.is_none() {
            meta = Some(parse_meta(&f)?);
            continue;
        }
        if events.len() == cap {
            return Err(f.err(&format!(
                "trace exceeds the {cap}-event cap; refusing to load"
            )));
        }
        events.push(parse_event(&f)?);
    }
    let meta = meta.ok_or_else(|| "empty trace file (no meta line)".to_string())?;
    Ok(TraceFile { meta, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RunMeta {
        RunMeta {
            protocol: "g-2PL".to_string(),
            clients: 8,
            latency: 200,
            read_prob: 0.25,
            // Larger than f64's 53-bit mantissa: pins integer-exact parsing.
            seed: 6_364_136_226_095_761_044,
            committed: 120,
            aborted: 3,
            measured: 100,
            mean_response: 512.5,
            dropped: 0,
            lease_expiries: 2,
            recovery_stall: 77.5,
            server_crashes: 1,
            response_p99: 1536,
            response_p999: 2048,
            check: Some(TraceCheckOpts {
                fl_consistent: true,
                expand_reads: false,
                faults: true,
            }),
        }
    }

    const C7: SiteId = SiteId::Client(ClientId::new(7));

    /// The meta line followed by `lines`.
    fn file(lines: &[&str]) -> String {
        let mut text = write_jsonl(&meta(), &[]);
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        text
    }

    fn parse_err(lines: &[&str]) -> String {
        parse_jsonl(&file(lines)).expect_err("must be rejected")
    }

    #[test]
    fn pre_crash_traces_parse_with_zero_server_crashes() {
        // Meta lines written before server recovery existed lack the
        // field; they must still parse, defaulting to 0.
        let text = write_jsonl(&meta(), &[]);
        let legacy = text.replace(",\"server_crashes\":1", "");
        let parsed = parse_jsonl(&legacy).expect("legacy meta parses");
        assert_eq!(parsed.meta.server_crashes, 0);
    }

    #[test]
    fn pre_tail_traces_parse_with_zero_quantiles() {
        let text = write_jsonl(&meta(), &[]);
        let legacy = text.replace(",\"response_p99\":1536,\"response_p999\":2048", "");
        let parsed = parse_jsonl(&legacy).expect("legacy meta parses");
        assert_eq!(parsed.meta.response_p99, 0);
        assert_eq!(parsed.meta.response_p999, 0);
    }

    #[test]
    fn flight_markers_round_trip_with_ranks() {
        use crate::span::Phase;
        let detail = |id: u32, end: u64| TxnDetail {
            txn: TxnId::new(id),
            start: SimTime::new(0),
            commit: SimTime::new(end - 10),
            end: SimTime::new(end),
            phases: [0; 6],
            rounds: 3,
            measured: true,
            intervals: vec![(Phase::ReqProp, SimTime::new(0), SimTime::new(1))],
        };
        let markers = flight_markers(&[detail(9, 500), detail(4, 300)]);
        assert_eq!(markers.len(), 2);
        assert_eq!(markers[0].kind, TraceKind::SlowTxn);
        assert_eq!((markers[0].txn, markers[0].n), (Some(TxnId::new(9)), 1));
        assert_eq!((markers[1].txn, markers[1].n), (Some(TxnId::new(4)), 2));
        let text = write_jsonl(&meta(), &markers);
        let parsed = parse_jsonl(&text).expect("markers parse");
        assert_eq!(parsed.events, markers);
    }

    #[test]
    fn round_trips_meta_and_events() {
        let e1 = TraceEvent {
            n: 4,
            ..TraceKind::WindowClosed.at(
                SimTime::new(14),
                None,
                Some(ItemId::new(3)),
                SiteId::server(2),
            )
        };
        let e2 = TraceEvent {
            n: 1,
            measured: true,
            ..TraceKind::Committed.at(SimTime::new(30), Some(TxnId::new(7)), None, C7)
        };
        let e3 = TraceKind::ReleaseArrived.at(
            SimTime::new(35),
            Some(TxnId::new(7)),
            Some(ItemId::new(3)),
            SiteId::SERVER0,
        );
        let events = vec![e1, e2, e3];
        let text = write_jsonl(&meta(), &events);
        let parsed = parse_jsonl(&text).expect("round trip");
        assert_eq!(parsed.meta, meta());
        assert_eq!(parsed.events, events);
        // Without checker options the meta line omits them and reads back
        // as `None`.
        let unchecked = RunMeta {
            check: None,
            ..meta()
        };
        let text = write_jsonl(&unchecked, &events);
        assert!(!text.contains("fl_consistent"));
        assert_eq!(parse_jsonl(&text).expect("parses").meta.check, None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("not json\n").is_err());
        assert!(
            parse_jsonl("{\"protocol\":\"x\"}\n").is_err(),
            "meta incomplete"
        );
        assert!(
            parse_err(&["{\"at\":1,\"site\":\"C0\"}"]).contains("line 2"),
            "event missing kind"
        );
        assert!(
            parse_err(&["{\"at\":1,\"kind\":\"zap\",\"site\":\"C0\"}"])
                .contains("unknown event kind"),
            "unknown kind"
        );
    }

    #[test]
    fn defaults_are_omitted_and_restored() {
        let ev = TraceKind::RequestSent.at(
            SimTime::new(5),
            Some(TxnId::new(0)),
            Some(ItemId::new(1)),
            C7,
        );
        let line = event_to_json(&ev);
        assert_eq!(
            line,
            "{\"at\":5,\"kind\":\"request_sent\",\"txn\":0,\"item\":1,\"site\":\"C7\"}"
        );
        let parsed = parse_jsonl(&file(&[&line])).expect("parses");
        assert_eq!(parsed.events, vec![ev]);
    }

    #[test]
    fn legacy_span_exports_parse_with_old_kind_names() {
        let text = "{\"protocol\":\"s-2PL\",\"clients\":2,\"latency\":100,\"read_prob\":0,\
                    \"seed\":7,\"committed\":1,\"aborted\":0,\"measured\":1,\"mean_response\":202}\n\
                    {\"at\":0,\"kind\":\"req_sent\",\"txn\":0,\"item\":0}\n\
                    {\"at\":100,\"kind\":\"req_arrived\",\"txn\":0,\"item\":0}\n\
                    {\"at\":100,\"kind\":\"dispatched\",\"txn\":0,\"item\":0}\n\
                    {\"at\":100,\"kind\":\"hop_departed\",\"txn\":0,\"item\":0}\n\
                    {\"at\":200,\"kind\":\"granted_local\",\"txn\":0,\"item\":0}\n\
                    {\"at\":202,\"kind\":\"commit_local\",\"txn\":0,\"n\":2,\"measured\":true}\n\
                    {\"at\":250,\"kind\":\"release_arrived\",\"txn\":0}\n\
                    {\"at\":302,\"kind\":\"release_arrived\",\"txn\":0,\"server\":true}\n";
        let tf = parse_jsonl(text).expect("legacy file parses");
        assert_eq!(tf.meta.check, None, "span-only exports carry no options");
        let kinds: Vec<TraceKind> = tf.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                TraceKind::RequestSent,
                TraceKind::RequestArrived,
                TraceKind::FlOrdered,
                TraceKind::HopDeparted,
                TraceKind::CacheHit,
                TraceKind::Committed,
                TraceKind::ReleaseArrived,
                TraceKind::ReleaseArrived,
            ]
        );
        assert_eq!((tf.events[5].n, tf.events[5].measured), (2, true));
        assert!(!tf.events[6].site.is_server(), "client-bound release");
        assert_eq!(tf.events[7].site, SiteId::SERVER0, "server-bound release");
    }

    #[test]
    fn rejects_txn_above_u32() {
        let err =
            parse_err(&["{\"at\":1,\"kind\":\"granted\",\"txn\":4294967296,\"site\":\"C0\"}"]);
        assert!(err.contains("line 2") && err.contains("\"txn\""), "{err}");
    }

    #[test]
    fn rejects_item_above_u32() {
        let err =
            parse_err(&["{\"at\":1,\"kind\":\"granted\",\"item\":4294967296,\"site\":\"C0\"}"]);
        assert!(err.contains("line 2") && err.contains("\"item\""), "{err}");
    }

    #[test]
    fn rejects_n_above_u32() {
        let err =
            parse_err(&["{\"at\":1,\"kind\":\"committed\",\"n\":4294967296,\"site\":\"C0\"}"]);
        assert!(err.contains("line 2") && err.contains("\"n\""), "{err}");
    }

    #[test]
    fn rejects_clients_above_u32() {
        let text = write_jsonl(&meta(), &[]).replace("\"clients\":8", "\"clients\":4294967296");
        let err = parse_jsonl(&text).expect_err("must be rejected");
        assert!(
            err.contains("line 1") && err.contains("\"clients\""),
            "{err}"
        );
    }

    #[test]
    fn rejects_fractional_integers() {
        let err = parse_err(&["{\"at\":1.5,\"kind\":\"granted\",\"site\":\"C0\"}"]);
        assert!(err.contains("line 2") && err.contains("\"at\""), "{err}");
        let err = parse_err(&["{\"at\":1,\"kind\":\"granted\",\"txn\":3.0,\"site\":\"C0\"}"]);
        assert!(err.contains("line 2") && err.contains("\"txn\""), "{err}");
        let text = write_jsonl(&meta(), &[]).replace("\"committed\":120", "\"committed\":1e2");
        let err = parse_jsonl(&text).expect_err("must be rejected");
        assert!(
            err.contains("line 1") && err.contains("\"committed\""),
            "{err}"
        );
    }

    #[test]
    fn rejects_negative_integers() {
        let err = parse_err(&["{\"at\":1,\"kind\":\"granted\",\"item\":-1,\"site\":\"C0\"}"]);
        assert!(err.contains("line 2") && err.contains("\"item\""), "{err}");
        let text = write_jsonl(&meta(), &[]).replace("\"seed\":6364136226095761044", "\"seed\":-7");
        let err = parse_jsonl(&text).expect_err("must be rejected");
        assert!(err.contains("line 1") && err.contains("\"seed\""), "{err}");
    }

    #[test]
    fn rejects_malformed_sites_and_partial_options() {
        for site in ["X3", "S", "C-1", "S+1", "C4294967296", "", "s0"] {
            let line = format!("{{\"at\":1,\"kind\":\"granted\",\"site\":\"{site}\"}}");
            assert!(parse_err(&[&line]).contains("malformed site"), "{site:?}");
        }
        let text = write_jsonl(&meta(), &[]).replace(",\"faults\":true", "");
        let err = parse_jsonl(&text).expect_err("must be rejected");
        assert!(
            err.contains("line 1") && err.contains("checker options"),
            "{err}"
        );
    }

    #[test]
    fn event_cap_admits_exactly_the_cap() {
        let line = "{\"at\":1,\"kind\":\"granted\",\"site\":\"C0\"}";
        let full = file(&[line; 3]);
        assert_eq!(parse_capped(&full, 3).expect("at the cap").events.len(), 3);
        let err = parse_capped(&file(&[line; 4]), 3).expect_err("one past the cap");
        assert!(err.contains("line 5") && err.contains("cap"), "{err}");
    }
}
