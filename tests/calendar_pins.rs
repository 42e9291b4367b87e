//! Whole-run pins of the event calendar's pop order.
//!
//! The calendar pops events in `(time, seq)` order, and every engine's
//! trajectory follows from that order. These cells pin what a changed
//! order would move first: the number of events a run processes, the
//! simulated time it ends at and the calendar's peak depth (the kernel
//! engines), or the events, PDES windows, messages, commits and mean
//! response (the scale-out engine, whose metrics report neither end time
//! nor depth). The cells are the calendar's deepest users: lossy runs
//! arm a lease or retry timer per message, a shard outage parks
//! deliveries behind a crash window, and the scale-out cell holds one
//! timer per client on each shard's calendar.

use g2pl_core::prelude::*;
use g2pl_faults::{FaultPlan, ServerCrashWindow};

/// What a kernel run's calendar decides.
#[derive(Debug, PartialEq)]
struct Pin {
    events: u64,
    end_time: u64,
    peak_calendar: usize,
}

fn pin_of(cfg: &EngineConfig) -> Pin {
    let m = run(cfg).expect("valid config");
    Pin {
        events: m.events,
        end_time: m.end_time.units(),
        peak_calendar: m.peak_calendar,
    }
}

/// A `fig_faults` cell at smoke scale: 50 clients, latency 250 (MAN),
/// pr 0.6, 5% loss on every link, drained.
fn lossy_cell(p: ProtocolKind) -> EngineConfig {
    let (warmup, measured, _) = Scale::Smoke.params();
    let mut cfg = EngineConfig::table1(p, 50, 250, 0.6);
    cfg.warmup_txns = warmup;
    cfg.measured_txns = measured;
    cfg.drain = true;
    cfg.faults = Some(FaultPlan::message_loss(0.05));
    cfg
}

#[test]
fn lossy_cells_keep_their_event_counts_end_times_and_depths() {
    let cells = [
        (
            ProtocolKind::S2pl,
            Pin {
                events: 26_377,
                end_time: 576_735,
                peak_calendar: 213,
            },
        ),
        (
            ProtocolKind::C2pl,
            Pin {
                events: 30_422,
                end_time: 628_079,
                peak_calendar: 203,
            },
        ),
        (
            ProtocolKind::g2pl_paper(),
            Pin {
                events: 28_210,
                end_time: 818_798,
                peak_calendar: 174,
            },
        ),
    ];
    for (p, pin) in cells {
        assert_eq!(
            pin_of(&lossy_cell(p.clone())),
            pin,
            "{p:?}: 5%-loss cell moved"
        );
    }
}

#[test]
fn sharded_s2pl_outage_keeps_its_event_count_end_time_and_depth() {
    // 4 shards, 30% multi-home transactions, shard 2 down twice.
    let mut cfg = EngineConfig::table1(ProtocolKind::S2pl, 8, 50, 0.4);
    cfg.items = ItemSpace::sharded(4, 7);
    cfg.profile.shard_mix = Some(ShardMix {
        cross_frac: 0.3,
        shard_theta: 0.5,
    });
    cfg.warmup_txns = 50;
    cfg.measured_txns = 300;
    cfg.drain = true;
    cfg.enable_wal = true;
    cfg.faults = Some(FaultPlan {
        server_crashes: vec![
            ServerCrashWindow::on_shard(2, 4_000, 1_200),
            ServerCrashWindow::on_shard(2, 15_000, 800),
        ],
        ..FaultPlan::default()
    });
    assert_eq!(
        pin_of(&cfg),
        Pin {
            events: 7535,
            end_time: 35_849,
            peak_calendar: 84,
        }
    );
}

/// What a scale-out run's per-shard calendars decide.
#[derive(Debug, PartialEq)]
struct ScalePin {
    events: u64,
    rounds: u64,
    messages: u64,
    committed: u64,
    /// Bits of the mean measured response time.
    response_mean: u64,
}

#[test]
fn scale_cell_keeps_its_events_at_one_and_two_workers() {
    let cfg = experiments::scale_cell(2_000, 4);
    let want = ScalePin {
        events: 102_679,
        rounds: 159,
        messages: 69_692,
        committed: 8251,
        response_mean: 4_639_921_855_107_800_063,
    };
    for workers in [1, 2] {
        let m = run_scale_with_workers(&cfg, workers).expect("cell runs");
        let got = ScalePin {
            events: m.events,
            rounds: m.rounds,
            messages: m.messages,
            committed: m.committed,
            response_mean: m.response.mean().to_bits(),
        };
        assert_eq!(got, want, "{workers} worker(s)");
    }
}
