//! L6 fixture: write-ahead ordering. `broadcast_first` ships the grant
//! before the log append that records it, and `notify_first` does the
//! same with an instant send (the two seeded violations);
//! `log_then_send` appends first and must stay clean, as must the
//! send/append pair sitting on mutually exclusive match arms.

impl Server {
    pub fn broadcast_first(&mut self) {
        self.net.send(Msg::Grant); // seeded: send precedes the append below
        self.log.append(ServerRecord::Granted);
    }

    pub fn notify_first(&mut self) {
        self.net.send_instant(Msg::Abort); // seeded: instant send precedes the append below
        self.log.append(LogRecord::Abort);
    }

    pub fn log_then_send(&mut self) {
        self.log.append(ServerRecord::Granted);
        self.net.send(Msg::Grant); // clean: the record is durable first
    }

    pub fn arm_isolated(&mut self, ev: Event) {
        match ev {
            Event::Persist => {
                self.log.append(LogRecord::Sealed);
            }
            Event::Ship => {
                // clean: the append above is on a mutually exclusive arm
                self.net.send(Msg::Grant);
            }
        }
    }
}
