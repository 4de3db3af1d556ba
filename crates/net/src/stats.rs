//! Network statistics collected by the runtimes.

use std::collections::BTreeMap;
use std::fmt;

/// Counters describing one run of a runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Total messages handed to the network (on the wall-clock runtime,
    /// counted on the sending actor's thread).
    pub messages_sent: u64,
    /// Total messages delivered to actors.
    pub messages_delivered: u64,
    /// Messages discarded by an installed [`crate::Tamper`] layer (always
    /// 0 when no tamper is set). Dropped messages still count as sent.
    pub messages_dropped: u64,
    /// Total payload units handed to the network (the sum of
    /// [`crate::Labeled::payload_units`] over every send — for discovery
    /// traffic, certificates carried). Like `messages_sent`, includes
    /// payload that a tamper later dropped.
    pub payload_units: u64,
    /// Payload units aboard tamper-dropped messages. Subtract from
    /// [`Self::payload_units`] (see [`Self::payload_delivered`]) for the
    /// payload that actually reached the delivery schedule.
    pub payload_dropped: u64,
    /// Payload units counted **at actual delivery to an actor** — once
    /// per delivered message.
    ///
    /// The conservation law under reliable channels is
    /// `payload_delivered_units ≤ payload_units − payload_dropped`, with
    /// equality once every scheduled message has been delivered (the gap
    /// is payload still in flight at shutdown).
    pub payload_delivered_units: u64,
    /// Total timer events fired (on the wall-clock runtime, summed over
    /// the actors when the run is over).
    pub timers_fired: u64,
    /// Per-label message counts (the label comes from
    /// [`crate::Labeled::label`]).
    pub by_label: BTreeMap<&'static str, u64>,
    /// Per-label payload-unit sums (only labels with nonzero payload
    /// appear).
    pub payload_by_label: BTreeMap<&'static str, u64>,
}

impl NetStats {
    /// Records a send with the given label and payload weight.
    pub(crate) fn record_send(&mut self, label: &'static str, payload: u64) {
        self.messages_sent += 1;
        *self.by_label.entry(label).or_insert(0) += 1;
        if payload > 0 {
            self.payload_units += payload;
            *self.payload_by_label.entry(label).or_insert(0) += payload;
        }
    }

    /// Records a tamper-dropped message (already counted as sent).
    pub(crate) fn record_drop(&mut self, payload: u64) {
        self.messages_dropped += 1;
        self.payload_dropped += payload;
    }

    /// Records one delivery and its payload weight (exactly once per
    /// delivered message, at the moment the actor receives it).
    #[inline]
    pub(crate) fn record_delivery(&mut self, payload: u64) {
        self.messages_delivered += 1;
        self.payload_delivered_units += payload;
    }

    /// Messages of one label, 0 if none.
    pub fn label_count(&self, label: &str) -> u64 {
        self.by_label.get(label).copied().unwrap_or(0)
    }

    /// Payload units of one label, 0 if none.
    pub fn label_payload(&self, label: &str) -> u64 {
        self.payload_by_label.get(label).copied().unwrap_or(0)
    }

    /// Payload units that survived the tamper layer
    /// (`payload_units − payload_dropped`).
    pub fn payload_delivered(&self) -> u64 {
        self.payload_units.saturating_sub(self.payload_dropped)
    }

    /// Folds another stats block into this one, summing every counter and
    /// per-label map.
    ///
    /// This is how the wall-clock runtime assembles the run's single
    /// `NetStats` surface from per-actor and per-thread blocks — each
    /// actor's sends, drops and timers, then the link's deliveries (router shards
    /// in shard-index order, or socket readers). Every aggregate
    /// (`messages_sent`, `payload_units`, `by_label`, …) is conserved: the
    /// merge equals what one observer of all the traffic would have
    /// recorded.
    pub fn merge(&mut self, other: &NetStats) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped += other.messages_dropped;
        self.payload_units += other.payload_units;
        self.payload_dropped += other.payload_dropped;
        self.payload_delivered_units += other.payload_delivered_units;
        self.timers_fired += other.timers_fired;
        for (label, count) in &other.by_label {
            *self.by_label.entry(label).or_insert(0) += count;
        }
        for (label, payload) in &other.payload_by_label {
            *self.payload_by_label.entry(label).or_insert(0) += payload;
        }
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} payload={} payload_delivered={} timers={}",
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.payload_units,
            self.payload_delivered_units,
            self.timers_fired
        )?;
        for (label, count) in &self.by_label {
            write!(f, " {label}={count}")?;
            if let Some(payload) = self.payload_by_label.get(label) {
                write!(f, "(·{payload})")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_displays() {
        let mut s = NetStats::default();
        s.record_send("PING", 0);
        s.record_send("PING", 0);
        s.record_send("PONG", 0);
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.label_count("PING"), 2);
        assert_eq!(s.label_count("NOPE"), 0);
        let text = s.to_string();
        assert!(text.contains("PING=2"));
        assert!(text.contains("sent=3"));
    }

    #[test]
    fn display_includes_drop_and_delivery_payload_counters() {
        let mut s = NetStats::default();
        s.record_send("SETPDS", 5);
        s.record_send("SETPDS", 3);
        s.record_drop(3);
        s.record_delivery(5);
        let text = s.to_string();
        assert!(text.contains("dropped=1"), "{text}");
        assert!(text.contains("payload_delivered=5"), "{text}");
        assert!(text.contains("sent=2 delivered=1"), "{text}");
    }

    #[test]
    fn merge_conserves_every_counter() {
        let mut a = NetStats::default();
        a.record_send("PING", 0);
        a.record_send("SETPDS", 5);
        a.messages_delivered = 2;
        a.timers_fired = 3;
        let mut b = NetStats::default();
        b.record_send("SETPDS", 7);
        b.record_drop(7);
        b.messages_delivered = 1;

        // Merging shard-by-shard equals one router seeing all traffic.
        let mut reference = NetStats::default();
        reference.record_send("PING", 0);
        reference.record_send("SETPDS", 5);
        reference.record_send("SETPDS", 7);
        reference.record_drop(7);
        reference.messages_delivered = 3;
        reference.timers_fired = 3;

        let mut merged = NetStats::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, reference);
        assert_eq!(merged.label_payload("SETPDS"), 12);
        assert_eq!(merged.payload_delivered(), 5);
    }

    #[test]
    fn delivered_payload_counts_once_per_delivery() {
        let mut s = NetStats::default();
        s.record_send("SETPDS", 5);
        s.record_send("SETPDS", 3);
        s.record_drop(3);
        s.record_delivery(5);
        assert_eq!(s.payload_delivered_units, 5);
        // Conservation once everything scheduled has been delivered.
        assert_eq!(s.payload_delivered_units, s.payload_delivered());
        // Merge conserves the delivered counter too.
        let mut other = NetStats::default();
        other.record_send("SETPDS", 2);
        other.record_delivery(2);
        s.merge(&other);
        assert_eq!(s.payload_delivered_units, 7);
        assert_eq!(s.payload_delivered_units, s.payload_delivered());
    }

    #[test]
    fn payload_accounting() {
        let mut s = NetStats::default();
        s.record_send("SETPDS", 5);
        s.record_send("SETPDS", 3);
        s.record_send("GETPDS", 0);
        s.record_drop(3);
        assert_eq!(s.payload_units, 8);
        assert_eq!(s.payload_dropped, 3);
        assert_eq!(s.payload_delivered(), 5);
        assert_eq!(s.label_payload("SETPDS"), 8);
        assert_eq!(s.label_payload("GETPDS"), 0);
        assert_eq!(s.messages_dropped, 1);
        let text = s.to_string();
        assert!(text.contains("payload=8"));
        assert!(text.contains("SETPDS=2(·8)"));
    }
}
