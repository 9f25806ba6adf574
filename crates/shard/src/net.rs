//! Socket transport for the boundary-sync coordinator: the control-message
//! codec, a TCP link (length-guarded frames over a stream, PR-2 codec
//! discipline via `vcs_runtime::net`), and a UDP link built on the
//! [`crate::arq`] reliability layer with configurable fault injection.
//!
//! The coordinator is the star center: one [`PeerNet`] multiplexing all
//! shard workers. Each worker holds one [`CoordLink`] back to the
//! coordinator. Both transports expose the same reliable in-order message
//! semantics, which is what makes the deployed protocol's *logical*
//! trajectory independent of transport and fault schedule (the
//! transport-oracle suite holds channel ≡ tcp ≡ lossy-udp to identical
//! commit logs).
//!
//! Transport-level observability: ARQ resends emit
//! [`Event::Retransmission`] and injector drops [`Event::FrameDropped`]
//! into a per-endpoint *network* trace (`net-*.jsonl`), stamped with a
//! local monotone tick — deliberately separate from the per-shard
//! application streams, whose causal stamps must stay fault-independent.

use crate::arq::{
    ArqReceiver, ArqSender, Datagram, DgramKind, FaultConfig, FaultInjector, MAX_DGRAM_PAYLOAD,
};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs, UdpSocket};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use vcs_obs::wire::{Reader, WireError, Writer};
use vcs_obs::{Event, NetStats, Obs};
use vcs_runtime::net::{connect_with_backoff, read_frame, write_frame};

/// Pairs per chunked control message — keeps every UDP datagram payload
/// comfortably under [`MAX_DGRAM_PAYLOAD`].
pub const CHUNK_PAIRS: usize = 700;

/// One message of the coordinator↔worker control protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Worker → coordinator, first message on a (re)connect: which shard
    /// this is and the round its checkpoint covers (0 = fresh start).
    Hello {
        /// Shard id.
        shard: u32,
        /// Last fully completed round in the worker's checkpoint.
        ckpt_round: u32,
    },
    /// Coordinator → worker: run the interior phase of `round`.
    RunInterior {
        /// 1-based coordinator round.
        round: u32,
    },
    /// Worker → coordinator: a chunk of interior moves as
    /// `(global user, route)` pairs, in commit order.
    InteriorPart {
        /// The chunk's moves.
        moves: Vec<(u32, u32)>,
    },
    /// Worker → coordinator: interior phase of `round` finished.
    InteriorDone {
        /// Echo of the round.
        round: u32,
        /// Whether the interior reached a local fixpoint (vs the slot cap).
        converged: bool,
        /// Cumulative decision slots committed at this shard.
        slots: u64,
        /// Total moves across the preceding `InteriorPart`s (integrity
        /// check).
        moves: u32,
    },
    /// Coordinator → home worker: compute the boundary user's best-route
    /// set.
    BestRespond {
        /// Global user id.
        user: u32,
    },
    /// Home worker → coordinator: the best-route set (may be empty).
    Routes {
        /// Echo of the user.
        user: u32,
        /// Strictly-improving route ids, engine order.
        routes: Vec<u32>,
    },
    /// Coordinator → home worker: commit `user`'s move to `route`.
    Commit {
        /// Global user id.
        user: u32,
        /// Route to commit.
        route: u32,
    },
    /// Home worker → coordinator: the committed move as an encoded,
    /// causally stamped [`crate::BoundaryFrame`] (exactly
    /// [`crate::FRAME_LEN`] bytes).
    Committed {
        /// Encoded boundary frame.
        frame: Vec<u8>,
    },
    /// Coordinator → replica: apply this boundary frame.
    Apply {
        /// Encoded boundary frame.
        frame: Vec<u8>,
    },
    /// Replica → coordinator: the frame with this sender-sequence number
    /// was applied (or was a detected duplicate — idempotent either way).
    Applied {
        /// The applied frame's per-sender sequence number.
        seq: u64,
    },
    /// Replica → coordinator: a causal-stamp gap — frames from `shard`
    /// starting at `from_seq` are missing; retransmit them in order.
    FrameGap {
        /// Home shard whose frame stream has the gap.
        shard: u32,
        /// First missing per-sender sequence number.
        from_seq: u64,
    },
    /// Coordinator → worker: persist a checkpoint covering `round`.
    Checkpoint {
        /// Last fully completed round.
        round: u32,
    },
    /// Worker → coordinator: checkpoint for `round` durably written.
    CheckpointDone {
        /// Echo of the round.
        round: u32,
    },
    /// Coordinator → worker: the run is over; report and exit.
    Finish,
    /// Worker → coordinator: a chunk of this shard's final home-user
    /// choices as `(global user, route)` pairs.
    DonePart {
        /// The chunk's entries.
        entries: Vec<(u32, u32)>,
    },
    /// Worker → coordinator: final report, after all `DonePart`s.
    Done {
        /// Shard id.
        shard: u32,
        /// Watchdog alerts raised at this worker.
        alerts: u64,
        /// Total decision slots committed at this shard.
        slots: u64,
        /// Entries across the preceding `DonePart`s (integrity check).
        entries: u32,
    },
    /// Worker → coordinator, out-of-band: one encoded
    /// [`vcs_obs::TelemetryFrame`] (opaque here — the frame carries its own
    /// magic, version, and shape validation). Telemetry rides the same
    /// reliable link as the protocol but never participates in it: the
    /// coordinator ingests these inside its receive loop and the lock-step
    /// state machine never sees them, so the deterministic trajectory is
    /// byte-identical with telemetry on or off.
    Telemetry {
        /// Encoded telemetry frame.
        bytes: Vec<u8>,
    },
}

/// Why a byte buffer failed to decode as a [`CtrlMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlError {
    /// Empty buffer.
    Empty,
    /// Unknown tag byte.
    BadTag(u8),
    /// A field or vector length overran the buffer.
    Truncated,
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// A vector length field promises more entries than the bytes present
    /// could hold (hostile-length guard).
    BadLength {
        /// Entries promised.
        promised: usize,
        /// Entries the remaining bytes could hold.
        possible: usize,
    },
}

impl std::fmt::Display for CtrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlError::Empty => write!(f, "empty control message"),
            CtrlError::BadTag(t) => write!(f, "unknown control tag {t}"),
            CtrlError::Truncated => write!(f, "truncated control message"),
            CtrlError::TrailingBytes(n) => write!(f, "{n} trailing bytes after control message"),
            CtrlError::BadLength { promised, possible } => {
                write!(f, "length {promised} promised, at most {possible} possible")
            }
        }
    }
}

impl std::error::Error for CtrlError {}

impl From<WireError> for CtrlError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { at: 0 } => CtrlError::Empty,
            WireError::Truncated { .. } => CtrlError::Truncated,
            WireError::BadLength {
                promised, possible, ..
            } => CtrlError::BadLength { promised, possible },
            WireError::Trailing { left, .. } => CtrlError::TrailingBytes(left),
        }
    }
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    out.put_len(pairs.len());
    for &(a, b) in pairs {
        out.put_u32(a);
        out.put_u32(b);
    }
}

fn get_pairs(r: &mut Reader<'_>) -> Result<Vec<(u32, u32)>, WireError> {
    let n = r.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.u32()?, r.u32()?));
    }
    Ok(out)
}

impl CtrlMsg {
    /// Serializes the message (tag byte, then big-endian fields; vectors
    /// are length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            CtrlMsg::Hello { shard, ckpt_round } => {
                out.put_u8(1);
                out.put_u32(*shard);
                out.put_u32(*ckpt_round);
            }
            CtrlMsg::RunInterior { round } => {
                out.put_u8(2);
                out.put_u32(*round);
            }
            CtrlMsg::InteriorPart { moves } => {
                out.put_u8(3);
                put_pairs(&mut out, moves);
            }
            CtrlMsg::InteriorDone {
                round,
                converged,
                slots,
                moves,
            } => {
                out.put_u8(4);
                out.put_u32(*round);
                out.put_u8(u8::from(*converged));
                out.put_u64(*slots);
                out.put_u32(*moves);
            }
            CtrlMsg::BestRespond { user } => {
                out.put_u8(5);
                out.put_u32(*user);
            }
            CtrlMsg::Routes { user, routes } => {
                out.put_u8(6);
                out.put_u32(*user);
                out.put_len(routes.len());
                for &r in routes {
                    out.put_u32(r);
                }
            }
            CtrlMsg::Commit { user, route } => {
                out.put_u8(7);
                out.put_u32(*user);
                out.put_u32(*route);
            }
            CtrlMsg::Committed { frame } => {
                out.put_u8(8);
                out.put_prefixed(frame);
            }
            CtrlMsg::Apply { frame } => {
                out.put_u8(9);
                out.put_prefixed(frame);
            }
            CtrlMsg::Applied { seq } => {
                out.put_u8(10);
                out.put_u64(*seq);
            }
            CtrlMsg::FrameGap { shard, from_seq } => {
                out.put_u8(11);
                out.put_u32(*shard);
                out.put_u64(*from_seq);
            }
            CtrlMsg::Checkpoint { round } => {
                out.put_u8(12);
                out.put_u32(*round);
            }
            CtrlMsg::CheckpointDone { round } => {
                out.put_u8(13);
                out.put_u32(*round);
            }
            CtrlMsg::Finish => out.put_u8(14),
            CtrlMsg::DonePart { entries } => {
                out.put_u8(15);
                put_pairs(&mut out, entries);
            }
            CtrlMsg::Done {
                shard,
                alerts,
                slots,
                entries,
            } => {
                out.put_u8(16);
                out.put_u32(*shard);
                out.put_u64(*alerts);
                out.put_u64(*slots);
                out.put_u32(*entries);
            }
            CtrlMsg::Telemetry { bytes } => {
                out.put_u8(17);
                out.put_prefixed(bytes);
            }
        }
        out
    }

    /// Decodes one message, rejecting unknown tags, truncation, hostile
    /// vector lengths, and trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, CtrlError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            1 => CtrlMsg::Hello {
                shard: r.u32()?,
                ckpt_round: r.u32()?,
            },
            2 => CtrlMsg::RunInterior { round: r.u32()? },
            3 => CtrlMsg::InteriorPart {
                moves: get_pairs(&mut r)?,
            },
            4 => CtrlMsg::InteriorDone {
                round: r.u32()?,
                converged: r.u8()? != 0,
                slots: r.u64()?,
                moves: r.u32()?,
            },
            5 => CtrlMsg::BestRespond { user: r.u32()? },
            6 => {
                let user = r.u32()?;
                let n = r.len(4)?;
                let mut routes = Vec::with_capacity(n);
                for _ in 0..n {
                    routes.push(r.u32()?);
                }
                CtrlMsg::Routes { user, routes }
            }
            7 => CtrlMsg::Commit {
                user: r.u32()?,
                route: r.u32()?,
            },
            8 => CtrlMsg::Committed {
                frame: r.prefixed()?.to_vec(),
            },
            9 => CtrlMsg::Apply {
                frame: r.prefixed()?.to_vec(),
            },
            10 => CtrlMsg::Applied { seq: r.u64()? },
            11 => CtrlMsg::FrameGap {
                shard: r.u32()?,
                from_seq: r.u64()?,
            },
            12 => CtrlMsg::Checkpoint { round: r.u32()? },
            13 => CtrlMsg::CheckpointDone { round: r.u32()? },
            14 => CtrlMsg::Finish,
            15 => CtrlMsg::DonePart {
                entries: get_pairs(&mut r)?,
            },
            16 => CtrlMsg::Done {
                shard: r.u32()?,
                alerts: r.u64()?,
                slots: r.u64()?,
                entries: r.u32()?,
            },
            17 => CtrlMsg::Telemetry {
                bytes: r.prefixed()?.to_vec(),
            },
            t => return Err(CtrlError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

fn other_err(msg: String) -> io::Error {
    io::Error::other(msg)
}

fn decode_ctrl(payload: &[u8]) -> io::Result<CtrlMsg> {
    CtrlMsg::decode(payload).map_err(|e| other_err(format!("control decode: {e}")))
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// One reliable framed stream to a single peer: writes go straight to the
/// socket, reads come from a reader thread so `recv` can time out without
/// desynchronizing mid-frame.
pub struct TcpLink {
    stream: TcpStream,
    rx: mpsc::Receiver<io::Result<Vec<u8>>>,
}

impl TcpLink {
    /// Wraps an accepted or connected stream, spawning its reader thread.
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let mut reader = stream.try_clone()?;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || loop {
            match read_frame(&mut reader) {
                Ok(payload) => {
                    if tx.send(Ok(payload)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        });
        Ok(TcpLink { stream, rx })
    }

    /// Dials `addr` with bounded backoff (workers joining — possibly before
    /// the coordinator's listener is up, or after their own restart).
    pub fn connect(addr: impl ToSocketAddrs + Clone) -> io::Result<Self> {
        Self::from_stream(connect_with_backoff(addr, 80, Duration::from_millis(15))?)
    }

    /// Sends one control message as a length-guarded frame.
    pub fn send(&mut self, msg: &CtrlMsg) -> io::Result<()> {
        write_frame(&mut self.stream, &msg.encode())
    }

    /// Receives the next control message, waiting at most `timeout`.
    /// `ErrorKind::TimedOut` when nothing arrived; other errors mean the
    /// stream is dead.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<CtrlMsg> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(payload)) => decode_ctrl(&payload),
            Ok(Err(e)) => Err(e),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "tcp recv timeout"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "tcp reader gone",
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// UDP
// ---------------------------------------------------------------------------

/// A delayed outbound datagram: `(release_ms, tie-break, bytes)` in a
/// min-heap.
#[derive(PartialEq, Eq)]
struct Delayed(u64, u64, Vec<u8>);

impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest release first.
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct UdpPeer {
    addr: SocketAddr,
    tx: ArqSender,
    rx: ArqReceiver,
    injector: FaultInjector,
    delayed: BinaryHeap<Delayed>,
    inbox: VecDeque<CtrlMsg>,
    tie: u64,
}

/// One UDP endpoint multiplexing any number of ARQ peers over a single
/// socket. The coordinator runs one with a peer per shard; each worker
/// runs one with the coordinator as its only peer (id 0).
pub struct UdpNode {
    socket: UdpSocket,
    epoch: Instant,
    fault: FaultConfig,
    net_seed: u64,
    rto_ms: u64,
    peers: HashMap<usize, UdpPeer>,
    addr_of: HashMap<SocketAddr, usize>,
    /// Peers whose `Hello` was just delivered (front of their inbox).
    hellos: VecDeque<usize>,
    obs: Obs,
    tick: u64,
    buf: Vec<u8>,
}

impl UdpNode {
    /// Binds a UDP endpoint. `fault` shapes every *outbound* datagram
    /// (each side of a link injects independently, seeded off `net_seed`
    /// and the peer id). `obs` receives transport-level
    /// `Retransmission`/`FrameDropped` events.
    pub fn bind(bind: &str, fault: FaultConfig, net_seed: u64, obs: Obs) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_read_timeout(Some(Duration::from_millis(2)))?;
        Ok(UdpNode {
            socket,
            epoch: Instant::now(),
            rto_ms: fault.suggested_rto_ms(),
            fault,
            net_seed,
            peers: HashMap::new(),
            addr_of: HashMap::new(),
            hellos: VecDeque::new(),
            obs,
            tick: 0,
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// The bound local address (the coordinator advertises its port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Registers (or re-registers after a restart) `peer` at `addr`,
    /// resetting all link state. Datagrams from the peer's previous
    /// incarnation become unroutable and are dropped.
    pub fn add_peer(&mut self, peer: usize, addr: SocketAddr) {
        if let Some(old) = self.peers.get(&peer) {
            self.addr_of.remove(&old.addr);
        }
        self.addr_of.insert(addr, peer);
        self.peers.insert(
            peer,
            UdpPeer {
                addr,
                tx: ArqSender::new(),
                rx: ArqReceiver::new(),
                injector: FaultInjector::new(
                    self.fault,
                    self.net_seed ^ (peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                delayed: BinaryHeap::new(),
                inbox: VecDeque::new(),
                tie: 0,
            },
        );
    }

    fn emit_drop(&mut self, bytes: u32, seq: u64) {
        self.tick += 1;
        let tick = self.tick;
        self.obs.emit(|| Event::FrameDropped {
            bytes,
            seq,
            lamport: tick,
        });
    }

    fn emit_retransmission(&mut self, attempt: u32, seq: u64) {
        self.tick += 1;
        let tick = self.tick;
        self.obs.emit(|| Event::Retransmission {
            attempt,
            seq,
            lamport: tick,
        });
    }

    /// Passes raw datagram bytes through the peer's injector and schedules
    /// or transmits the surviving copies.
    fn put_wire(&mut self, peer: usize, bytes: Vec<u8>, now: u64) -> io::Result<()> {
        let len = bytes.len() as u32;
        let (admitted, dropped, addr) = {
            let p = self.peers.get_mut(&peer).expect("known peer");
            let before = p.injector.dropped();
            let admitted = p.injector.admit(bytes, now);
            (admitted, p.injector.dropped() > before, p.addr)
        };
        if dropped {
            self.emit_drop(len, 0);
        }
        for (release, bytes) in admitted {
            if release <= now {
                let _ = self.socket.send_to(&bytes, addr)?;
            } else {
                let p = self.peers.get_mut(&peer).expect("known peer");
                p.tie += 1;
                let tie = p.tie;
                p.delayed.push(Delayed(release, tie, bytes));
            }
        }
        Ok(())
    }

    /// Sends one control message to `peer` (reliably: the ARQ keeps it
    /// buffered until acked).
    pub fn send(&mut self, peer: usize, msg: &CtrlMsg) -> io::Result<()> {
        let now = self.now_ms();
        let payload = msg.encode();
        assert!(
            payload.len() <= MAX_DGRAM_PAYLOAD,
            "control message over datagram cap — chunking bug"
        );
        let (_, bytes) = {
            let p = self
                .peers
                .get_mut(&peer)
                .ok_or_else(|| other_err(format!("unknown peer {peer}")))?;
            p.tx.send(payload, now)
        };
        self.put_wire(peer, bytes, now)
    }

    /// Sends a raw ACK/NAK datagram (not sequenced, still fault-injected).
    fn put_control(&mut self, peer: usize, kind: DgramKind, seq: u64) -> io::Result<()> {
        let now = self.now_ms();
        let bytes = Datagram {
            kind,
            seq,
            payload: Vec::new(),
        }
        .encode();
        self.put_wire(peer, bytes, now)
    }

    /// One pump iteration: release due delayed datagrams, resend expired
    /// unacked ones, then drain the socket.
    fn pump(&mut self) -> io::Result<()> {
        let now = self.now_ms();
        let peer_ids: Vec<usize> = self.peers.keys().copied().collect();
        for peer in peer_ids {
            // Release delayed sends that are due.
            loop {
                let (due_bytes, addr) = {
                    let p = self.peers.get_mut(&peer).expect("known peer");
                    match p.delayed.peek() {
                        Some(d) if d.0 <= now => {
                            let d = p.delayed.pop().expect("peeked");
                            (Some(d.2), p.addr)
                        }
                        _ => (None, p.addr),
                    }
                };
                match due_bytes {
                    Some(bytes) => {
                        let _ = self.socket.send_to(&bytes, addr)?;
                    }
                    None => break,
                }
            }
            // Retransmission timeouts.
            let due = {
                let p = self.peers.get_mut(&peer).expect("known peer");
                p.tx.due(now, self.rto_ms)
            };
            for (seq, attempt, bytes) in due {
                self.emit_retransmission(attempt, seq);
                self.put_wire(peer, bytes, now)?;
            }
        }
        // Drain everything currently readable.
        loop {
            match self.socket.recv_from(&mut self.buf) {
                Ok((n, from)) => {
                    let datagram = match Datagram::decode(&self.buf[..n]) {
                        Ok(d) => d,
                        Err(_) => continue, // corrupt or foreign datagram
                    };
                    self.ingest(from, datagram)?;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn ingest(&mut self, from: SocketAddr, datagram: Datagram) -> io::Result<()> {
        let peer = match self.addr_of.get(&from) {
            Some(&p) => p,
            None => {
                // Unknown source: only a fresh Hello (the first sequenced
                // datagram of a new incarnation) may register itself.
                if datagram.kind != DgramKind::Data || datagram.seq != 1 {
                    return Ok(());
                }
                match CtrlMsg::decode(&datagram.payload) {
                    Ok(CtrlMsg::Hello { shard, .. }) => {
                        self.add_peer(shard as usize, from);
                        shard as usize
                    }
                    _ => return Ok(()),
                }
            }
        };
        match datagram.kind {
            DgramKind::Ack => {
                let now = self.now_ms();
                let p = self.peers.get_mut(&peer).expect("known peer");
                p.tx.on_ack(datagram.seq, now);
            }
            DgramKind::Nak => {
                let now = self.now_ms();
                let resend = {
                    let p = self.peers.get_mut(&peer).expect("known peer");
                    p.tx.on_nak(datagram.seq, now)
                };
                if let Some((attempt, bytes)) = resend {
                    self.emit_retransmission(attempt, datagram.seq);
                    self.put_wire(peer, bytes, now)?;
                }
            }
            DgramKind::Data => {
                let out = {
                    let p = self.peers.get_mut(&peer).expect("known peer");
                    p.rx.on_data(datagram.seq, datagram.payload)
                };
                self.put_control(peer, DgramKind::Ack, out.cum_ack)?;
                if let Some(missing) = out.gap {
                    self.put_control(peer, DgramKind::Nak, missing)?;
                }
                for payload in out.delivered {
                    let msg = decode_ctrl(&payload)?;
                    if matches!(msg, CtrlMsg::Hello { .. }) {
                        self.hellos.push_back(peer);
                    }
                    let p = self.peers.get_mut(&peer).expect("known peer");
                    p.inbox.push_back(msg);
                }
            }
        }
        Ok(())
    }

    /// Receives the next message from `peer`, pumping the socket until one
    /// arrives or `timeout` expires (`ErrorKind::TimedOut`).
    pub fn recv(&mut self, peer: usize, timeout: Duration) -> io::Result<CtrlMsg> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.peers.get_mut(&peer) {
                if let Some(msg) = p.inbox.pop_front() {
                    if matches!(msg, CtrlMsg::Hello { .. }) {
                        // Keep the hello queue consistent when a Hello is
                        // consumed through the normal path.
                        if let Some(at) = self.hellos.iter().position(|&h| h == peer) {
                            self.hellos.remove(at);
                        }
                    }
                    return Ok(msg);
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "udp recv timeout"));
            }
            self.pump()?;
        }
    }

    /// Waits for the next `Hello` from any peer — how the coordinator
    /// admits fresh workers and re-admits restarted ones. Returns
    /// `(peer, ckpt_round)`.
    pub fn accept_hello(&mut self, timeout: Duration) -> io::Result<(usize, u32)> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(peer) = self.hellos.pop_front() {
                let p = self.peers.get_mut(&peer).expect("hello implies peer");
                match p.inbox.pop_front() {
                    Some(CtrlMsg::Hello { ckpt_round, .. }) => return Ok((peer, ckpt_round)),
                    Some(other) => {
                        return Err(other_err(format!("expected Hello, got {other:?}")));
                    }
                    None => continue,
                }
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no Hello arrived"));
            }
            self.pump()?;
        }
    }

    /// Pumps until every peer's ARQ send window is fully acknowledged (or
    /// `timeout` expires) — called before a clean process exit so the final
    /// message of a conversation survives datagram loss. Returns whether
    /// the window drained.
    pub fn drain(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.peers.values().all(|p| p.tx.in_flight() == 0) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            if self.pump().is_err() {
                return false;
            }
        }
    }

    /// Pumps the socket for `duration` — keeps acking duplicate resends
    /// from peers that are still draining while this side merely waits.
    pub fn idle_pump(&mut self, duration: Duration) {
        let deadline = Instant::now() + duration;
        while Instant::now() < deadline {
            if self.pump().is_err() {
                return;
            }
        }
    }

    /// Total ARQ retransmissions across all current peer links.
    pub fn retransmissions(&self) -> u64 {
        self.peers.values().map(|p| p.tx.retransmissions()).sum()
    }

    /// Total injector-dropped datagrams across all current peer links.
    pub fn drops(&self) -> u64 {
        self.peers.values().map(|p| p.injector.dropped()).sum()
    }

    /// Full transport-health snapshot aggregated over all current peer
    /// links: every ARQ counter, the in-flight gauge, and the largest
    /// per-peer smoothed-RTT estimate.
    pub fn net_stats(&self) -> NetStats {
        let mut out = NetStats::default();
        for p in self.peers.values() {
            out.retransmissions += p.tx.retransmissions();
            out.naks += p.tx.naks();
            out.rto_fires += p.tx.rto_fires();
            out.in_flight += p.tx.in_flight() as u64;
            out.drops += p.injector.dropped();
            out.dup_drops += p.rx.dup_drops();
            out.srtt_ms = out.srtt_ms.max(p.tx.srtt_ms().unwrap_or(0));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Role-facing wrappers
// ---------------------------------------------------------------------------

/// Which transport a deployment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process reference coordinator ([`crate::ShardedSim`]).
    Channel,
    /// One OS process per shard over TCP streams.
    Tcp,
    /// One OS process per shard over UDP with the ARQ layer (and optional
    /// fault injection).
    Udp,
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "channel" => Ok(TransportKind::Channel),
            "tcp" => Ok(TransportKind::Tcp),
            "udp" => Ok(TransportKind::Udp),
            other => Err(format!("unknown transport {other:?} (channel|tcp|udp)")),
        }
    }
}

/// The worker's link back to the coordinator.
///
/// One instance lives per worker process, so the size skew between the
/// thin TCP link and the windowed UDP node is irrelevant — no boxing.
#[allow(clippy::large_enum_variant)]
pub enum CoordLink {
    /// Framed TCP stream.
    Tcp(TcpLink),
    /// ARQ over UDP; the coordinator is peer 0.
    Udp(UdpNode),
}

impl CoordLink {
    /// Dials the coordinator over the chosen socket transport.
    ///
    /// # Panics
    ///
    /// Panics when called with [`TransportKind::Channel`] — the channel
    /// transport has no socket link.
    pub fn connect(
        transport: TransportKind,
        addr: &str,
        fault: FaultConfig,
        net_seed: u64,
        obs: Obs,
    ) -> io::Result<Self> {
        match transport {
            TransportKind::Tcp => Ok(CoordLink::Tcp(TcpLink::connect(addr)?)),
            TransportKind::Udp => {
                let mut node = UdpNode::bind("127.0.0.1:0", fault, net_seed, obs)?;
                let coord: SocketAddr = addr
                    .parse()
                    .map_err(|e| other_err(format!("bad coordinator addr {addr}: {e}")))?;
                node.add_peer(0, coord);
                Ok(CoordLink::Udp(node))
            }
            TransportKind::Channel => panic!("channel transport has no socket link"),
        }
    }

    /// Sends one message to the coordinator.
    pub fn send(&mut self, msg: &CtrlMsg) -> io::Result<()> {
        match self {
            CoordLink::Tcp(link) => link.send(msg),
            CoordLink::Udp(node) => node.send(0, msg),
        }
    }

    /// Receives the next message from the coordinator.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<CtrlMsg> {
        match self {
            CoordLink::Tcp(link) => link.recv(timeout),
            CoordLink::Udp(node) => node.recv(0, timeout),
        }
    }

    /// Waits until every sent message is acknowledged (UDP) before a clean
    /// exit; a TCP stream needs no drain (writes are synchronous).
    pub fn drain(&mut self, timeout: Duration) {
        if let CoordLink::Udp(node) = self {
            node.drain(timeout);
        }
    }

    /// Worker-side transport-health snapshot (all zero over TCP: the
    /// kernel owns reliability there).
    pub fn net_stats(&self) -> NetStats {
        match self {
            CoordLink::Tcp(_) => NetStats::default(),
            CoordLink::Udp(node) => node.net_stats(),
        }
    }
}

/// The coordinator's multiplexed view of all shard workers.
///
/// One instance lives per coordinator, so the size skew between the
/// TCP and UDP arms is irrelevant — no boxing.
#[allow(clippy::large_enum_variant)]
pub enum PeerNet {
    /// One framed stream per worker plus an accept thread for joins and
    /// restart re-joins.
    Tcp {
        /// Established links, by shard (None until the shard's Hello).
        links: Vec<Option<TcpLink>>,
        /// Freshly accepted, not-yet-identified streams.
        incoming: mpsc::Receiver<TcpStream>,
    },
    /// One ARQ peer per worker on a single socket.
    Udp(UdpNode),
}

impl PeerNet {
    /// Binds the coordinator's listening endpoint for `shards` workers.
    /// Returns the net and the port workers should dial.
    pub fn bind(
        transport: TransportKind,
        shards: usize,
        fault: FaultConfig,
        net_seed: u64,
        obs: Obs,
    ) -> io::Result<(Self, u16)> {
        match transport {
            TransportKind::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0")?;
                let port = listener.local_addr()?.port();
                let (tx, incoming) = mpsc::channel();
                std::thread::spawn(move || {
                    for stream in listener.incoming().flatten() {
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                });
                Ok((
                    PeerNet::Tcp {
                        links: (0..shards).map(|_| None).collect(),
                        incoming,
                    },
                    port,
                ))
            }
            TransportKind::Udp => {
                let node = UdpNode::bind("127.0.0.1:0", fault, net_seed, obs)?;
                let port = node.local_addr()?.port();
                Ok((PeerNet::Udp(node), port))
            }
            TransportKind::Channel => Err(other_err(
                "channel transport does not bind a socket".to_string(),
            )),
        }
    }

    /// Waits for the next worker `Hello` (fresh join or restart re-join),
    /// wiring its link. Returns `(shard, ckpt_round)`.
    pub fn accept_hello(&mut self, timeout: Duration) -> io::Result<(usize, u32)> {
        match self {
            PeerNet::Tcp { links, incoming } => {
                let stream = incoming
                    .recv_timeout(timeout)
                    .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "no worker connected"))?;
                let mut link = TcpLink::from_stream(stream)?;
                match link.recv(Duration::from_secs(5))? {
                    CtrlMsg::Hello { shard, ckpt_round } => {
                        let s = shard as usize;
                        if s >= links.len() {
                            return Err(other_err(format!("hello from unknown shard {s}")));
                        }
                        links[s] = Some(link);
                        Ok((s, ckpt_round))
                    }
                    other => Err(other_err(format!("expected Hello, got {other:?}"))),
                }
            }
            PeerNet::Udp(node) => node.accept_hello(timeout),
        }
    }

    /// Sends one message to shard `s`.
    pub fn send(&mut self, s: usize, msg: &CtrlMsg) -> io::Result<()> {
        match self {
            PeerNet::Tcp { links, .. } => links[s]
                .as_mut()
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotConnected, format!("shard {s} link down"))
                })?
                .send(msg),
            PeerNet::Udp(node) => node.send(s, msg),
        }
    }

    /// Receives the next message from shard `s`.
    pub fn recv(&mut self, s: usize, timeout: Duration) -> io::Result<CtrlMsg> {
        match self {
            PeerNet::Tcp { links, .. } => links[s]
                .as_mut()
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotConnected, format!("shard {s} link down"))
                })?
                .recv(timeout),
            PeerNet::Udp(node) => node.recv(s, timeout),
        }
    }

    /// Tears down shard `s`'s link ahead of a restart, so stale traffic
    /// from the dead incarnation cannot be misread as the new one's.
    pub fn reset(&mut self, s: usize) {
        match self {
            PeerNet::Tcp { links, .. } => links[s] = None,
            PeerNet::Udp(node) => {
                // Dropping link state entirely would also drop the peer's
                // addr mapping; re-registration happens on its next Hello.
                if let Some(p) = node.peers.remove(&s) {
                    node.addr_of.remove(&p.addr);
                }
                if let Some(at) = node.hellos.iter().position(|&h| h == s) {
                    node.hellos.remove(at);
                }
            }
        }
    }

    /// Pumps the socket for `duration` (UDP) — re-acks duplicate resends
    /// from workers draining their final `Done` while the coordinator waits
    /// for their processes to exit. No-op over TCP.
    pub fn idle_pump(&mut self, duration: Duration) {
        if let PeerNet::Udp(node) = self {
            node.idle_pump(duration);
        }
    }

    /// Coordinator-side transport-health snapshot: every ARQ counter, the
    /// in-flight gauge, and the smoothed-RTT estimate (all zero over TCP —
    /// the kernel owns reliability there).
    pub fn stats(&self) -> NetStats {
        match self {
            PeerNet::Tcp { .. } => NetStats::default(),
            PeerNet::Udp(node) => node.net_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: CtrlMsg) {
        let bytes = msg.encode();
        assert_eq!(CtrlMsg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn ctrl_codec_round_trips_every_variant() {
        round_trip(CtrlMsg::Hello {
            shard: 3,
            ckpt_round: 7,
        });
        round_trip(CtrlMsg::RunInterior { round: 12 });
        round_trip(CtrlMsg::InteriorPart {
            moves: vec![(1, 2), (3, 4)],
        });
        round_trip(CtrlMsg::InteriorDone {
            round: 12,
            converged: true,
            slots: 99,
            moves: 2,
        });
        round_trip(CtrlMsg::BestRespond { user: 8 });
        round_trip(CtrlMsg::Routes {
            user: 8,
            routes: vec![0, 2, 5],
        });
        round_trip(CtrlMsg::Commit { user: 8, route: 2 });
        round_trip(CtrlMsg::Committed {
            frame: vec![9u8; crate::FRAME_LEN],
        });
        round_trip(CtrlMsg::Apply {
            frame: vec![9u8; crate::FRAME_LEN],
        });
        round_trip(CtrlMsg::Applied { seq: 41 });
        round_trip(CtrlMsg::FrameGap {
            shard: 1,
            from_seq: 17,
        });
        round_trip(CtrlMsg::Checkpoint { round: 4 });
        round_trip(CtrlMsg::CheckpointDone { round: 4 });
        round_trip(CtrlMsg::Finish);
        round_trip(CtrlMsg::DonePart {
            entries: vec![(5, 1)],
        });
        round_trip(CtrlMsg::Done {
            shard: 2,
            alerts: 0,
            slots: 1234,
            entries: 1,
        });
        round_trip(CtrlMsg::Telemetry {
            bytes: vcs_obs::TelemetryFrame::empty(3).encode(),
        });
    }

    #[test]
    fn telemetry_frame_rides_one_udp_datagram() {
        // The telemetry CtrlMsg wrapping a full frame must stay under the
        // datagram payload cap — telemetry never chunks.
        let msg = CtrlMsg::Telemetry {
            bytes: vcs_obs::TelemetryFrame::empty(0).encode(),
        };
        assert!(msg.encode().len() <= MAX_DGRAM_PAYLOAD);
    }

    #[test]
    fn ctrl_decode_rejects_hostile_input() {
        assert_eq!(CtrlMsg::decode(&[]), Err(CtrlError::Empty));
        assert_eq!(CtrlMsg::decode(&[200]), Err(CtrlError::BadTag(200)));
        assert_eq!(CtrlMsg::decode(&[2, 0, 0]), Err(CtrlError::Truncated));
        // InteriorPart promising u32::MAX pairs with 4 bytes of body.
        let mut hostile = vec![3];
        hostile.extend_from_slice(&u32::MAX.to_be_bytes());
        hostile.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            CtrlMsg::decode(&hostile),
            Err(CtrlError::BadLength { .. })
        ));
        // Trailing garbage after a complete Finish.
        assert_eq!(CtrlMsg::decode(&[14, 0]), Err(CtrlError::TrailingBytes(1)));
    }

    #[test]
    fn tcp_link_round_trips_messages() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut link = TcpLink::from_stream(stream).unwrap();
            let msg = link.recv(Duration::from_secs(5)).unwrap();
            link.send(&msg).unwrap();
        });
        let mut client = TcpLink::connect(addr).unwrap();
        let msg = CtrlMsg::Routes {
            user: 3,
            routes: vec![1, 4],
        };
        client.send(&msg).unwrap();
        assert_eq!(client.recv(Duration::from_secs(5)).unwrap(), msg);
        server.join().unwrap();
    }

    #[test]
    fn udp_nodes_exchange_reliably_under_heavy_faults() {
        let fault = FaultConfig {
            loss: 0.25,
            dup: 0.15,
            reorder: 0.2,
            rtt_ms: 4,
            jitter_ms: 3,
        };
        let mut coord = UdpNode::bind("127.0.0.1:0", fault, 11, Obs::default()).unwrap();
        let coord_addr = coord.local_addr().unwrap();
        let mut worker = UdpNode::bind("127.0.0.1:0", fault, 12, Obs::default()).unwrap();
        worker.add_peer(0, coord_addr);
        worker
            .send(
                0,
                &CtrlMsg::Hello {
                    shard: 1,
                    ckpt_round: 0,
                },
            )
            .unwrap();
        // Both nodes live on one thread here, so the receiver must lend the
        // sender pump time for its ARQ timers to fire (in the deployment
        // each process pumps its own node while blocked in `recv`).
        fn recv_both(rx: &mut UdpNode, peer: usize, other: &mut UdpNode) -> CtrlMsg {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match rx.recv(peer, Duration::from_millis(5)) {
                    Ok(msg) => return msg,
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                        assert!(Instant::now() < deadline, "udp exchange stalled");
                        other.idle_pump(Duration::from_millis(2));
                    }
                    Err(e) => panic!("udp recv failed: {e}"),
                }
            }
        }
        let hello = loop {
            match coord.accept_hello(Duration::from_millis(5)) {
                Ok(h) => break h,
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    worker.idle_pump(Duration::from_millis(2));
                }
                Err(e) => panic!("accept_hello failed: {e}"),
            }
        };
        assert_eq!(hello, (1, 0));
        // 60 lock-step round trips under 25% loss: every message arrives,
        // exactly once, in order.
        for i in 0..60u32 {
            coord.send(1, &CtrlMsg::RunInterior { round: i }).unwrap();
            let got = recv_both(&mut worker, 0, &mut coord);
            assert_eq!(got, CtrlMsg::RunInterior { round: i });
            worker
                .send(
                    0,
                    &CtrlMsg::InteriorDone {
                        round: i,
                        converged: true,
                        slots: u64::from(i),
                        moves: 0,
                    },
                )
                .unwrap();
            let got = recv_both(&mut coord, 1, &mut worker);
            assert_eq!(
                got,
                CtrlMsg::InteriorDone {
                    round: i,
                    converged: true,
                    slots: u64::from(i),
                    moves: 0,
                }
            );
        }
        assert!(
            coord.retransmissions() + worker.retransmissions() > 0,
            "25% loss over 120 messages must force at least one resend"
        );
    }
}
