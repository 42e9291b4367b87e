//! L5 fixture (driver): appends `TraceKind::SlowTxn` markers at export
//! time — an expression-position emission outside the defining file
//! and outside any `.emit(..)` call, the same struct-update shape as
//! `g2pl_obs::export::flight_markers` — and consumes `FlightGhost`
//! without ever emitting it.

pub fn flight_markers(flight: &[TxnDetail]) -> Vec<TraceEvent> {
    flight
        .iter()
        .enumerate()
        .map(|(i, d)| TraceEvent {
            n: (i + 1) as u32,
            ..TraceKind::SlowTxn.at(d.end, Some(d.txn), None, s)
        })
        .collect()
}

pub fn is_marker(k: &TraceKind) -> bool {
    // clean: consumers never count as emissions
    matches!(k, TraceKind::FlightGhost)
}
