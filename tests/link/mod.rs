//! The link-conformance body: one traffic-exact flood workload, checked
//! the same way on every link of the wall-clock runtime.
//!
//! `tests/router_shards.rs` runs it on the threaded link at every shard
//! count, `tests/socket_parity.rs` on the socket link over loopback TCP.
//! Each actor floods every peer `FLOOD_R` times, then sends one `Done`
//! to each, and halts once it has heard everything it expects. Traffic
//! totals are exact functions of the topology, and the trailing
//! per-sender `Done` makes every halt causally later than the tamper's
//! rulings on that sender's floods, so the final stats are exact, not
//! racy.

use std::collections::BTreeMap;

use bft_cupft::graph::ProcessId;
use bft_cupft::net::{Actor, Context, Fate, Labeled, NetStats, Runtime, Tamper};
use bft_cupft::wire::{Decode, Encode, Reader, WireError};

/// Number of flood actors.
const FLOOD_N: u64 = 9;
/// Rounds each actor floods at startup.
const FLOOD_R: u64 = 5;
/// Payload units per flood message.
const FLOOD_PAYLOAD: u64 = 3;
/// Flood messages in one run.
const FLOODS: u64 = FLOOD_N * (FLOOD_N - 1) * FLOOD_R;
/// `Done` messages in one run.
const DONES: u64 = FLOOD_N * (FLOOD_N - 1);
/// The one sender a tamper singles out.
const SINGLED_OUT: u64 = 1;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloodMsg {
    /// A payload-bearing round message.
    Flood,
    /// The sender's final message, emitted after all its floods.
    Done,
}

impl Labeled for FloodMsg {
    fn label(&self) -> &'static str {
        match self {
            FloodMsg::Flood => "FLOOD",
            FloodMsg::Done => "DONE",
        }
    }
    fn payload_units(&self) -> u64 {
        match self {
            FloodMsg::Flood => FLOOD_PAYLOAD,
            FloodMsg::Done => 0,
        }
    }
}

impl Encode for FloodMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            FloodMsg::Flood => 0,
            FloodMsg::Done => 1,
        });
    }
}

impl Decode for FloodMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(FloodMsg::Flood),
            1 => Ok(FloodMsg::Done),
            tag => Err(WireError::BadTag {
                ty: "FloodMsg",
                tag,
            }),
        }
    }
}

struct FloodActor {
    id: ProcessId,
    peers: Vec<ProcessId>,
    expect: u64,
    got: u64,
}

impl Actor<FloodMsg> for FloodActor {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        for _ in 0..FLOOD_R {
            for &peer in &self.peers {
                ctx.send(peer, FloodMsg::Flood);
            }
        }
        for &peer in &self.peers {
            ctx.send(peer, FloodMsg::Done);
        }
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, ctx: &mut Context<FloodMsg>) {
        self.got += 1;
        if self.got >= self.expect {
            ctx.halt();
        }
    }
}

/// Registers the all-to-all flood on `rt`. `floods_from(id)` counts the
/// senders whose floods `id` waits for; every actor also waits for one
/// `Done` per peer.
fn flood<R: Runtime<FloodMsg>>(rt: &mut R, floods_from: impl Fn(ProcessId) -> u64) {
    let ids: Vec<ProcessId> = (1..=FLOOD_N).map(ProcessId::new).collect();
    for &id in &ids {
        rt.add_actor(Box::new(FloodActor {
            id,
            peers: ids.iter().copied().filter(|&p| p != id).collect(),
            expect: floods_from(id) * FLOOD_R + (FLOOD_N - 1),
            got: 0,
        }));
    }
}

/// With no tamper, every counter equals the topology's exact totals, and
/// the delivered payload is conserved. Returns the stats, so a caller can
/// compare whole `NetStats` blocks across link settings.
pub fn conserves_netstats<R: Runtime<FloodMsg>>(mut rt: R) -> NetStats {
    let name = rt.name();
    flood(&mut rt, |_| FLOOD_N - 1);
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    let stats = report.stats;
    assert_eq!(stats.messages_sent, FLOODS + DONES, "{name}");
    assert_eq!(stats.messages_delivered, FLOODS + DONES, "{name}");
    assert_eq!(stats.messages_dropped, 0, "{name}");
    assert_eq!(stats.label_count("FLOOD"), FLOODS, "{name}");
    assert_eq!(stats.label_count("DONE"), DONES, "{name}");
    assert_eq!(stats.payload_units, FLOODS * FLOOD_PAYLOAD, "{name}");
    assert_eq!(
        stats.label_payload("FLOOD"),
        FLOODS * FLOOD_PAYLOAD,
        "{name}"
    );
    // Payload is counted again at delivery, once per delivered message,
    // and the fully delivered run conserves it exactly.
    assert_eq!(
        stats.payload_delivered_units,
        FLOODS * FLOOD_PAYLOAD,
        "{name}"
    );
    assert_eq!(
        stats.payload_delivered_units,
        stats.payload_delivered(),
        "{name}"
    );
    stats
}

/// Drops the floods of one sender; its `Done`s still flow.
struct DropFloodsFrom;

impl Tamper<FloodMsg> for DropFloodsFrom {
    fn disposition(&mut self, from: ProcessId, _: ProcessId, label: &'static str, _: u64) -> Fate {
        if from.raw() == SINGLED_OUT && label == "FLOOD" {
            Fate::Drop
        } else {
            Fate::Deliver
        }
    }
}

/// Every drop is counted exactly once, still as sent, and everything the
/// tamper spared is delivered exactly once.
pub fn drop_accounting_is_exact<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    let silenced = ProcessId::new(SINGLED_OUT);
    flood(&mut rt, |id| {
        if id == silenced {
            FLOOD_N - 1 // still hears everyone's floods
        } else {
            FLOOD_N - 2 // everyone's floods except the silenced sender's
        }
    });
    rt.set_tamper(Box::new(DropFloodsFrom));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    let stats = report.stats;
    let dropped = (FLOOD_N - 1) * FLOOD_R;
    assert_eq!(stats.messages_sent, FLOODS + DONES, "{name}");
    assert_eq!(stats.messages_dropped, dropped, "{name}");
    assert_eq!(stats.messages_delivered, FLOODS + DONES - dropped, "{name}");
    assert_eq!(stats.payload_dropped, dropped * FLOOD_PAYLOAD, "{name}");
    assert_eq!(
        stats.payload_delivered(),
        (FLOODS - dropped) * FLOOD_PAYLOAD,
        "{name}"
    );
    assert_eq!(
        stats.payload_delivered_units,
        (FLOODS - dropped) * FLOOD_PAYLOAD,
        "{name}"
    );
}

/// Asserts the per-sender structure the flood emits (`FLOOD_R` batches of
/// peers in ID order, then the `Done` batch): any reordering of one
/// sender's emissions before the tamper would trip it.
#[derive(Default)]
struct OrderAssertingTamper {
    /// sender -> (round, last peer)
    last_to: BTreeMap<ProcessId, (u64, u64)>,
}

impl Tamper<FloodMsg> for OrderAssertingTamper {
    fn disposition(&mut self, from: ProcessId, to: ProcessId, _: &'static str, _: u64) -> Fate {
        let entry = self.last_to.entry(from).or_insert((0, 0));
        if to.raw() <= entry.1 {
            entry.0 += 1; // a new round wrapped past the sender's peer list
            assert!(
                entry.0 < FLOOD_R + 1,
                "sender {from} emitted more rounds than it floods"
            );
        }
        entry.1 = to.raw();
        Fate::Deliver
    }
}

/// The tamper sees each sender's emissions in program order.
pub fn tamper_sees_emission_order<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    flood(&mut rt, |_| FLOOD_N - 1);
    rt.set_tamper(Box::new(OrderAssertingTamper::default()));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    assert_eq!(report.stats.messages_delivered, FLOODS + DONES, "{name}");
}

/// How long [`DelayFloodsFrom`] holds a flood back, in milliseconds.
const HOLD_MS: u64 = 150;

/// Holds back the floods of one sender by [`HOLD_MS`].
struct DelayFloodsFrom;

impl Tamper<FloodMsg> for DelayFloodsFrom {
    fn disposition(&mut self, from: ProcessId, _: ProcessId, label: &'static str, _: u64) -> Fate {
        if from.raw() == SINGLED_OUT && label == "FLOOD" {
            Fate::Delay(HOLD_MS)
        } else {
            Fate::Deliver
        }
    }
}

/// A `Fate::Delay` holds a message back, and it is still delivered.
pub fn delayed_messages_are_delivered<R: Runtime<FloodMsg>>(mut rt: R) {
    let name = rt.name();
    flood(&mut rt, |_| FLOOD_N - 1);
    rt.set_tamper(Box::new(DelayFloodsFrom));
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{name}: {report:?}");
    assert!(report.end_time >= HOLD_MS, "{name}: {report:?}");
    assert_eq!(report.stats.messages_dropped, 0, "{name}");
    assert_eq!(report.stats.messages_delivered, FLOODS + DONES, "{name}");
}
