//! L5 fixture (definitions): the flight-recorder corner of the event
//! vocabulary. `SlowTxn` is the export-time marker the driver fixture
//! builds in expression position; `FlightGhost` is seeded as a variant
//! nothing ever emits (consumption via `matches!` must not count).

pub enum TraceKind {
    SlowTxn,
    FlightGhost, // seeded: never emitted anywhere
}
