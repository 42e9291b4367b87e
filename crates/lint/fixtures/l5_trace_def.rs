//! L5 fixture (definitions): the event vocabulary. `Ghost` is seeded as
//! a variant nothing ever emits; `Granted` is emitted through the
//! kernel's `.emit(..)` by the emitter fixture and must stay clean.

pub enum TraceKind {
    Granted,
    Ghost, // seeded: never emitted anywhere
}
