//! L5 fixture (emitter): emits `TraceKind::Granted` through `.emit(..)`,
//! drives the transaction state machine, and seeds a decision function
//! (`dispatch`) that emits no event at all.

pub fn grant(k: &mut Kernel, txn: &mut Txn) {
    txn.set_status(TxnStatus::Active);
    k.emit(TraceKind::Granted.at(now, t, i, s)); // clean: emission site for Granted
}

pub fn dispatch(queue: &mut Queue) {
    // seeded: protocol decision with no `.emit(..)`
    queue.push_back(1);
}

pub fn inspect(k: &TraceKind) -> bool {
    // clean: consumers never count as emissions
    matches!(k, TraceKind::Ghost)
}
