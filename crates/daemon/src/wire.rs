//! The datagram wire format.
//!
//! Three message kinds, fixed little-endian layout, one version byte.
//! Replies always travel to the datagram's source address, so addressing
//! fields stay minimal: the sequence number pairs grants — and their acks
//! — with requests, and a v2 request additionally carries the sender's
//! stable cluster id so the granter's escrow survives the requester
//! rebinding to a new port (the address identifies the *socket*, the id
//! identifies the *node*).
//!
//! Three versions coexist. Version `0x01` is the original layout; version
//! `0x02` appends a suspicion-digest section to grants and acks (so
//! liveness gossip can piggyback on protocol traffic) and a sender-id
//! section to requests; version `0x03` further appends a bid section to
//! requests (market-policy deciders price their demand — see
//! `DeciderPolicy::Market`). A sender emits the lowest version that
//! carries everything it has to say — the common fault-free grant/ack is
//! byte-identical to the old format, and a zero bid never pays the v3
//! bytes — and receivers accept every version of every kind.
//!
//! ```text
//! v1 Request: [0x01, 0x00, seq: u64, urgent: u8, alpha_mw: u64]  (19 bytes)
//! v1 Grant:   [0x01, 0x01, seq: u64, amount_mw: u64]             (18 bytes)
//! v1 Ack:     [0x01, 0x02, seq: u64]                             (10 bytes)
//!
//! v2 Request: v1 body, then from: u32                            (23 bytes)
//! v2 Grant:   v1 body, then digest                               (≤75 bytes)
//! v2 Ack:     v1 body, then digest                               (≤67 bytes)
//! digest:     [incarnation: u64, count: u8,
//!              count × (peer: u32, incarnation: u64)]
//!
//! v3 Request: v2 body, then bid_mw: u64                          (31 bytes)
//! ```
//!
//! A bidding request must name its sender: the granter keys escrow and
//! ack bookkeeping by node id, and an anonymous bid would break both.
//! [`WireMsg::encode`] therefore downgrades a non-zero bid with no `from`
//! to v2, dropping the bid (the daemon stamps `from` on every outbound
//! request, so this is a defence against hand-built messages, not a path
//! real traffic takes).
//!
//! The digest's leading `incarnation` is the *sender's own*; entries name
//! third-party peers the sender currently suspects. `count` above
//! [`MAX_DIGEST_ENTRIES`] is rejected: the bound is part of the format, so
//! a hostile datagram cannot make a receiver loop over thousands of
//! entries.

use penelope_core::{PeerMsg, SuspicionDigest, SuspicionEntry, MAX_DIGEST_ENTRIES};
use penelope_units::{NodeId, Power};

/// Protocol version byte for digest-free messages (the v1 format).
pub const WIRE_VERSION: u8 = 0x01;

/// Protocol version byte for messages carrying a suspicion digest.
pub const WIRE_VERSION_DIGEST: u8 = 0x02;

/// Protocol version byte for requests carrying a non-zero bid.
pub const WIRE_VERSION_BID: u8 = 0x03;

const KIND_REQUEST: u8 = 0x00;
const KIND_GRANT: u8 = 0x01;
const KIND_ACK: u8 = 0x02;

/// Encoded digest section size at the entry cap: 8 (incarnation) + 1
/// (count) + entries.
const MAX_DIGEST_LEN: usize = 9 + MAX_DIGEST_ENTRIES * 12;

/// Maximum encoded size (for receive buffers): a v2 grant with a full
/// digest.
pub const MAX_WIRE_LEN: usize = 18 + MAX_DIGEST_LEN;

/// A message on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// A power request addressed to a peer's pool.
    Request {
        /// Requester-local sequence number, echoed in the grant.
        seq: u64,
        /// Urgent flag (§3: hungry and below the initial cap).
        urgent: bool,
        /// Power needed to return to the initial cap (urgent only).
        alpha: Power,
        /// The requester's stable cluster id (v2 only). Grants key their
        /// escrow by this id, so a requester that crashes and rebinds a
        /// different port can still retransmit, be deduplicated, and ack.
        /// `None` on v1 datagrams from older senders.
        from: Option<NodeId>,
        /// The price this requester attaches to its demand (v3 only;
        /// zero under the urgency and predictive policies, which keep
        /// the v1/v2 formats on the wire).
        bid: Power,
    },
    /// A pool's grant in response.
    Grant {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Power transferred (already debited from the sender's pool).
        amount: Power,
        /// Piggybacked suspicion gossip, if the sender had any.
        digest: Option<Box<SuspicionDigest>>,
    },
    /// The requester's acknowledgement of an applied non-zero grant; lets
    /// the granter release the grant's escrow entry. Unacknowledged grants
    /// are re-sent on a retransmitted request or reclaimed at the escrow
    /// deadline, so a lost grant datagram never burns pool power.
    Ack {
        /// Echo of the granted request's sequence number.
        seq: u64,
        /// Piggybacked suspicion gossip, if the sender had any.
        digest: Option<Box<SuspicionDigest>>,
    },
}

/// Decoding failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Datagram shorter than its layout requires.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// Digest section claims more entries than the format allows.
    BadDigest(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated datagram"),
            WireError::BadVersion(v) => write!(f, "unknown wire version {v:#x}"),
            WireError::BadKind(k) => write!(f, "unknown message kind {k:#x}"),
            WireError::BadDigest(n) => write!(f, "digest claims {n} entries"),
        }
    }
}

impl std::error::Error for WireError {}

fn encode_digest(buf: &mut Vec<u8>, digest: &SuspicionDigest) {
    buf.extend_from_slice(&digest.incarnation.to_le_bytes());
    let n = digest.entries.len().min(MAX_DIGEST_ENTRIES);
    buf.push(n as u8);
    for entry in digest.entries.iter().take(n) {
        buf.extend_from_slice(&entry.peer.raw().to_le_bytes());
        buf.extend_from_slice(&entry.incarnation.to_le_bytes());
    }
}

impl WireMsg {
    /// The wire form of an engine message sent by node `from`. Requests
    /// name their sender (v2 and later), so a grant can find it again
    /// after it rebinds.
    pub fn from_peer(msg: &PeerMsg, from: NodeId) -> Self {
        match msg {
            PeerMsg::Request(req) => WireMsg::Request {
                seq: req.seq,
                urgent: req.urgent,
                alpha: req.alpha,
                from: Some(from),
                bid: req.bid,
            },
            PeerMsg::Grant(g, digest) => WireMsg::Grant {
                seq: g.seq,
                amount: g.amount,
                digest: digest.clone(),
            },
            PeerMsg::Ack(a, digest) => WireMsg::Ack {
                seq: a.seq,
                digest: digest.clone(),
            },
        }
    }

    /// Encode into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(MAX_WIRE_LEN);
        self.encode_into(&mut buf);
        buf
    }

    /// Append the encoding to `buf`, leaving the bytes already there
    /// untouched — the allocation-free path for callers that pack
    /// several messages into one reusable buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let version = match self {
            WireMsg::Request {
                from: Some(_), bid, ..
            } if !bid.is_zero() => WIRE_VERSION_BID,
            WireMsg::Grant {
                digest: Some(_), ..
            }
            | WireMsg::Ack {
                digest: Some(_), ..
            }
            | WireMsg::Request { from: Some(_), .. } => WIRE_VERSION_DIGEST,
            _ => WIRE_VERSION,
        };
        buf.push(version);
        match self {
            WireMsg::Request {
                seq,
                urgent,
                alpha,
                from,
                bid,
            } => {
                buf.push(KIND_REQUEST);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.push(u8::from(*urgent));
                buf.extend_from_slice(&alpha.milliwatts().to_le_bytes());
                if let Some(id) = from {
                    buf.extend_from_slice(&id.raw().to_le_bytes());
                }
                if version == WIRE_VERSION_BID {
                    buf.extend_from_slice(&bid.milliwatts().to_le_bytes());
                }
            }
            WireMsg::Grant {
                seq,
                amount,
                digest,
            } => {
                buf.push(KIND_GRANT);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(&amount.milliwatts().to_le_bytes());
                if let Some(d) = digest {
                    encode_digest(buf, d);
                }
            }
            WireMsg::Ack { seq, digest } => {
                buf.push(KIND_ACK);
                buf.extend_from_slice(&seq.to_le_bytes());
                if let Some(d) = digest {
                    encode_digest(buf, d);
                }
            }
        }
    }

    /// Decode from a received datagram. Accepts both wire versions; a v1
    /// grant or ack decodes with `digest: None`.
    pub fn decode(buf: &[u8]) -> Result<WireMsg, WireError> {
        if buf.len() < 2 {
            return Err(WireError::Truncated);
        }
        let version = buf[0];
        if version != WIRE_VERSION && version != WIRE_VERSION_DIGEST && version != WIRE_VERSION_BID
        {
            return Err(WireError::BadVersion(version));
        }
        let u64_at = |off: usize| -> Result<u64, WireError> {
            let bytes: [u8; 8] = buf
                .get(off..off + 8)
                .ok_or(WireError::Truncated)?
                .try_into()
                .expect("slice is 8 bytes");
            Ok(u64::from_le_bytes(bytes))
        };
        let u32_at = |off: usize| -> Result<u32, WireError> {
            let bytes: [u8; 4] = buf
                .get(off..off + 4)
                .ok_or(WireError::Truncated)?
                .try_into()
                .expect("slice is 4 bytes");
            Ok(u32::from_le_bytes(bytes))
        };
        // A v2 grant/ack carries a digest section at `off`; v1 carries
        // none.
        let digest_at = |off: usize| -> Result<Option<Box<SuspicionDigest>>, WireError> {
            if version == WIRE_VERSION {
                return Ok(None);
            }
            let incarnation = u64_at(off)?;
            let n = *buf.get(off + 8).ok_or(WireError::Truncated)?;
            if n as usize > MAX_DIGEST_ENTRIES {
                return Err(WireError::BadDigest(n));
            }
            let mut entries = Vec::with_capacity(n as usize);
            let mut at = off + 9;
            for _ in 0..n {
                entries.push(SuspicionEntry {
                    peer: NodeId::new(u32_at(at)?),
                    incarnation: u64_at(at + 4)?,
                });
                at += 12;
            }
            Ok(Some(Box::new(SuspicionDigest {
                incarnation,
                entries,
            })))
        };
        match buf[1] {
            KIND_REQUEST => {
                let seq = u64_at(2)?;
                let urgent = *buf.get(10).ok_or(WireError::Truncated)? != 0;
                let alpha = Power::from_milliwatts(u64_at(11)?);
                let from = if version == WIRE_VERSION {
                    None
                } else {
                    Some(NodeId::new(u32_at(19)?))
                };
                let bid = if version == WIRE_VERSION_BID {
                    Power::from_milliwatts(u64_at(23)?)
                } else {
                    Power::ZERO
                };
                Ok(WireMsg::Request {
                    seq,
                    urgent,
                    alpha,
                    from,
                    bid,
                })
            }
            KIND_GRANT => {
                let seq = u64_at(2)?;
                let amount = Power::from_milliwatts(u64_at(10)?);
                let digest = digest_at(18)?;
                Ok(WireMsg::Grant {
                    seq,
                    amount,
                    digest,
                })
            }
            KIND_ACK => {
                let seq = u64_at(2)?;
                let digest = digest_at(10)?;
                Ok(WireMsg::Ack { seq, digest })
            }
            k => Err(WireError::BadKind(k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn digest(incarnation: u64, peers: &[(u32, u64)]) -> Box<SuspicionDigest> {
        Box::new(SuspicionDigest {
            incarnation,
            entries: peers
                .iter()
                .map(|&(p, inc)| SuspicionEntry {
                    peer: NodeId::new(p),
                    incarnation: inc,
                })
                .collect(),
        })
    }

    #[test]
    fn request_roundtrip() {
        for urgent in [false, true] {
            let msg = WireMsg::Request {
                seq: 0xDEAD_BEEF_0123,
                urgent,
                alpha: w(57),
                from: None,
                bid: Power::ZERO,
            };
            let bytes = msg.encode();
            assert_eq!(bytes.len(), 19);
            assert_eq!(bytes[0], WIRE_VERSION);
            assert_eq!(WireMsg::decode(&bytes), Ok(msg));
        }
    }

    #[test]
    fn request_with_sender_id_roundtrips_as_v2() {
        let msg = WireMsg::Request {
            seq: 42,
            urgent: true,
            alpha: w(30),
            from: Some(NodeId::new(7)),
            bid: Power::ZERO,
        };
        let bytes = msg.encode();
        assert_eq!(bytes[0], WIRE_VERSION_DIGEST);
        assert_eq!(bytes.len(), 23);
        assert_eq!(WireMsg::decode(&bytes), Ok(msg));
        // A v2 request truncated to the v1 body must not silently decode
        // without its id section.
        assert_eq!(WireMsg::decode(&bytes[..19]), Err(WireError::Truncated));
    }

    #[test]
    fn bidding_request_roundtrips_as_v3() {
        let msg = WireMsg::Request {
            seq: 42,
            urgent: false,
            alpha: w(30),
            from: Some(NodeId::new(7)),
            bid: Power::from_milliwatts(1_017),
        };
        let bytes = msg.encode();
        assert_eq!(bytes[0], WIRE_VERSION_BID);
        assert_eq!(bytes.len(), 31);
        assert_eq!(WireMsg::decode(&bytes), Ok(msg));
        // Any strict prefix of the bid section must fail, not decode as
        // a v3 request with a mangled bid.
        for cut in 23..31 {
            assert_eq!(WireMsg::decode(&bytes[..cut]), Err(WireError::Truncated));
        }
    }

    #[test]
    fn zero_bid_requests_stay_on_the_old_wire_bytes() {
        // The urgency and predictive policies always bid zero; their
        // datagrams must be indistinguishable from the pre-market format.
        let bytes = WireMsg::Request {
            seq: 9,
            urgent: true,
            alpha: w(12),
            from: Some(NodeId::new(3)),
            bid: Power::ZERO,
        }
        .encode();
        assert_eq!(bytes[0], WIRE_VERSION_DIGEST);
        assert_eq!(bytes.len(), 23);
    }

    #[test]
    fn anonymous_bid_downgrades_to_v2_semantics() {
        // A non-zero bid with no sender id cannot be expressed on the
        // wire; the encoder drops the bid rather than emit an
        // unattributable v3 datagram.
        let bytes = WireMsg::Request {
            seq: 5,
            urgent: false,
            alpha: w(8),
            from: None,
            bid: w(2),
        }
        .encode();
        assert_eq!(bytes[0], WIRE_VERSION);
        assert_eq!(bytes.len(), 19);
        assert_eq!(
            WireMsg::decode(&bytes),
            Ok(WireMsg::Request {
                seq: 5,
                urgent: false,
                alpha: w(8),
                from: None,
                bid: Power::ZERO,
            })
        );
    }

    #[test]
    fn grant_roundtrip() {
        let msg = WireMsg::Grant {
            seq: u64::MAX,
            amount: Power::from_milliwatts(123_456),
            digest: None,
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), 18);
        assert_eq!(WireMsg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn ack_roundtrip() {
        let msg = WireMsg::Ack {
            seq: 0xFEED_F00D_4567,
            digest: None,
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), 10);
        assert_eq!(WireMsg::decode(&bytes), Ok(msg));
        // Truncated ack body fails cleanly.
        assert_eq!(WireMsg::decode(&bytes[..9]), Err(WireError::Truncated));
    }

    #[test]
    fn encode_into_appends_exactly_the_encoding() {
        let msgs = [
            WireMsg::Request {
                seq: 11,
                urgent: true,
                alpha: w(25),
                from: Some(NodeId::new(4)),
                bid: w(2),
            },
            WireMsg::Grant {
                seq: 12,
                amount: w(40),
                digest: Some(digest(3, &[(7, 1), (9, 2)])),
            },
            WireMsg::Ack {
                seq: 13,
                digest: None,
            },
        ];
        // Start from a non-empty buffer: the prefix must survive and each
        // message must add exactly the bytes `encode` returns.
        let mut buf = vec![0xAB, 0xCD, 0xEF];
        let mut expected = buf.clone();
        for msg in &msgs {
            msg.encode_into(&mut buf);
            expected.extend_from_slice(&msg.encode());
            assert_eq!(buf, expected);
        }
    }

    #[test]
    fn digest_free_messages_stay_v1_bytes() {
        // The fault-free path must emit datagrams an old receiver parses:
        // version byte 0x01 and the original fixed lengths.
        let g = WireMsg::Grant {
            seq: 7,
            amount: w(40),
            digest: None,
        }
        .encode();
        assert_eq!(g[0], WIRE_VERSION);
        assert_eq!(g.len(), 18);
        let a = WireMsg::Ack {
            seq: 7,
            digest: None,
        }
        .encode();
        assert_eq!(a[0], WIRE_VERSION);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn grant_with_digest_roundtrips_as_v2() {
        let msg = WireMsg::Grant {
            seq: 9,
            amount: w(25),
            digest: Some(digest(4, &[(2, 1), (3, 7)])),
        };
        let bytes = msg.encode();
        assert_eq!(bytes[0], WIRE_VERSION_DIGEST);
        assert_eq!(bytes.len(), 18 + 9 + 2 * 12);
        assert_eq!(WireMsg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn ack_with_empty_digest_carries_incarnation_only() {
        // A rejoining node gossips a bare incarnation (no suspects) to
        // refute stale suspicion of itself.
        let msg = WireMsg::Ack {
            seq: 3,
            digest: Some(digest(12, &[])),
        };
        let bytes = msg.encode();
        assert_eq!(bytes[0], WIRE_VERSION_DIGEST);
        assert_eq!(bytes.len(), 10 + 9);
        assert_eq!(WireMsg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn full_digest_fits_the_declared_max() {
        let entries: Vec<(u32, u64)> = (0..MAX_DIGEST_ENTRIES as u32)
            .map(|p| (p, u64::MAX))
            .collect();
        let msg = WireMsg::Grant {
            seq: u64::MAX,
            amount: Power::MAX,
            digest: Some(digest(u64::MAX, &entries)),
        };
        assert_eq!(msg.encode().len(), MAX_WIRE_LEN);
        assert_eq!(WireMsg::decode(&msg.encode()), Ok(msg));
    }

    #[test]
    fn oversized_digest_count_is_rejected() {
        let mut bytes = WireMsg::Ack {
            seq: 1,
            digest: Some(digest(1, &[])),
        }
        .encode();
        // Forge the count byte past the cap; the decoder must refuse
        // rather than trust it.
        bytes[18] = MAX_DIGEST_ENTRIES as u8 + 1;
        assert_eq!(
            WireMsg::decode(&bytes),
            Err(WireError::BadDigest(MAX_DIGEST_ENTRIES as u8 + 1))
        );
    }

    #[test]
    fn v2_truncated_digest_fails_cleanly() {
        let bytes = WireMsg::Grant {
            seq: 2,
            amount: w(10),
            digest: Some(digest(5, &[(1, 3)])),
        }
        .encode();
        for cut in 18..bytes.len() {
            assert_eq!(
                WireMsg::decode(&bytes[..cut]),
                Err(WireError::Truncated),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn zero_grant_roundtrip() {
        let msg = WireMsg::Grant {
            seq: 0,
            amount: Power::ZERO,
            digest: None,
        };
        assert_eq!(WireMsg::decode(&msg.encode()), Ok(msg));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(WireMsg::decode(&[]), Err(WireError::Truncated));
        assert_eq!(WireMsg::decode(&[1]), Err(WireError::Truncated));
        assert_eq!(WireMsg::decode(&[9, 0]), Err(WireError::BadVersion(9)));
        assert_eq!(WireMsg::decode(&[1, 7]), Err(WireError::BadKind(7)));
        // Truncated request body.
        let mut bytes = WireMsg::Request {
            seq: 1,
            urgent: true,
            alpha: w(1),
            from: None,
            bid: Power::ZERO,
        }
        .encode();
        bytes.truncate(12);
        assert_eq!(WireMsg::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn buffers_fit_the_declared_max() {
        let r = WireMsg::Request {
            seq: u64::MAX,
            urgent: true,
            alpha: Power::MAX,
            from: Some(NodeId::new(u32::MAX)),
            bid: Power::MAX,
        };
        assert!(r.encode().len() <= MAX_WIRE_LEN);
        let g = WireMsg::Grant {
            seq: u64::MAX,
            amount: Power::MAX,
            digest: None,
        };
        assert!(g.encode().len() <= MAX_WIRE_LEN);
    }

    #[test]
    fn error_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadVersion(3).to_string().contains("version"));
        assert!(WireError::BadKind(3).to_string().contains("kind"));
        assert!(WireError::BadDigest(9).to_string().contains("entries"));
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    fn arb_digest() -> impl Strategy<Value = Option<Box<SuspicionDigest>>> {
        (
            any::<bool>(),
            any::<u64>(),
            proptest::collection::vec((any::<u32>(), any::<u64>()), 0..=MAX_DIGEST_ENTRIES),
        )
            .prop_map(|(present, incarnation, peers)| {
                present.then(|| {
                    Box::new(SuspicionDigest {
                        incarnation,
                        entries: peers
                            .into_iter()
                            .map(|(p, inc)| SuspicionEntry {
                                peer: NodeId::new(p),
                                incarnation: inc,
                            })
                            .collect(),
                    })
                })
            })
    }

    proptest! {
        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = WireMsg::decode(&bytes);
        }

        #[test]
        fn arbitrary_messages_roundtrip(
            seq in any::<u64>(),
            urgent in any::<bool>(),
            mw in any::<u64>(),
            kind in 0u8..4,
            digest in arb_digest(),
        ) {
            // kind 3 exercises the v2 request (sender id derived from the
            // same entropy as the payload).
            let msg = match kind {
                0 => WireMsg::Request {
                    seq,
                    urgent,
                    alpha: Power::from_milliwatts(mw),
                    from: None,
                    bid: Power::ZERO,
                },
                3 => WireMsg::Request {
                    seq,
                    urgent,
                    alpha: Power::from_milliwatts(mw),
                    from: Some(NodeId::new((mw >> 16) as u32)),
                    bid: Power::from_milliwatts(mw ^ seq),
                },
                1 => WireMsg::Grant { seq, amount: Power::from_milliwatts(mw), digest },
                _ => WireMsg::Ack { seq, digest },
            };
            prop_assert_eq!(WireMsg::decode(&msg.encode()), Ok(msg));
        }

        #[test]
        fn decode_is_prefix_strict(
            seq in any::<u64>(),
            mw in any::<u64>(),
            cut in 0usize..74,
            is_ack in any::<bool>(),
            digest in arb_digest(),
        ) {
            // Any strict prefix of a valid grant or ack fails cleanly —
            // in both wire versions.
            let bytes = if is_ack {
                WireMsg::Ack { seq, digest }.encode()
            } else {
                WireMsg::Grant { seq, amount: Power::from_milliwatts(mw), digest }.encode()
            };
            let truncated = &bytes[..cut.min(bytes.len() - 1)];
            prop_assert!(WireMsg::decode(truncated).is_err());
        }
    }
}
