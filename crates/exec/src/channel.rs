//! Bounded byte-buffer channel with optional bandwidth throttling.
//!
//! One channel models one directed link between two pipeline stages. It
//! carries encoded frames (opaque byte buffers) FIFO, enforces a byte
//! capacity (a sender blocks while the queue is full — real backpressure),
//! and optionally throttles delivery to a configured bytes-per-second
//! rate: each frame becomes *visible to the receiver* only after its
//! serialized length has "crossed the link", with frames sharing the link
//! sequentially. The sender is never blocked by the throttle itself (a
//! NIC queues and DMAs in the background; compute/communication overlap is
//! the point of pipelining) — only by capacity.
//!
//! Byte and frame counters accumulate on the sender side, so a run's
//! transfer volume is measured from what actually entered the wire.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counters for one channel, read after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames sent.
    pub frames: u64,
    /// Total encoded bytes sent.
    pub bytes: u64,
    /// Bytes whose delivery the bandwidth throttle metered (0 on an
    /// unthrottled channel): a deterministic sign the throttle engaged.
    pub metered_bytes: u64,
}

struct Queue {
    frames: VecDeque<(Vec<u8>, Instant)>,
    used: usize,
    link_free: Option<Instant>,
    closed: bool,
}

/// Most buffers a channel's free list retains; enough for the deepest
/// in-flight window the runtime uses, small enough to bound idle memory.
const POOL_CAP: usize = 8;

/// A bounded, optionally throttled, byte-buffer channel.
pub struct ByteChannel {
    q: Mutex<Queue>,
    can_send: Condvar,
    can_recv: Condvar,
    capacity: usize,
    bytes_per_sec: Option<f64>,
    frames: AtomicU64,
    bytes: AtomicU64,
    metered_bytes: AtomicU64,
    pool: Mutex<Vec<Vec<u8>>>,
}

impl ByteChannel {
    /// A channel holding at most `capacity` queued bytes, delivering at
    /// `bytes_per_sec` if given (unthrottled otherwise).
    pub fn new(capacity: usize, bytes_per_sec: Option<f64>) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        if let Some(b) = bytes_per_sec {
            assert!(b > 0.0, "bandwidth must be positive");
        }
        ByteChannel {
            q: Mutex::new(Queue {
                frames: VecDeque::new(),
                used: 0,
                link_free: None,
                closed: false,
            }),
            can_send: Condvar::new(),
            can_recv: Condvar::new(),
            capacity,
            bytes_per_sec,
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            metered_bytes: AtomicU64::new(0),
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Take a scratch buffer from the channel's free list (empty but with
    /// warmed capacity once the pipeline is in steady state), or a fresh
    /// one if the list is dry. Pair with [`ByteChannel::recycle`]: the
    /// receiver returns buffers after decoding, so steady-state 1F1B
    /// sends stop allocating per frame. Purely an allocation cache — wire
    /// bytes and counters are unaffected.
    pub fn take_buffer(&self) -> Vec<u8> {
        self.pool.lock().unwrap().pop().unwrap_or_default()
    }

    /// Return a spent buffer to the free list for a future
    /// [`ByteChannel::take_buffer`]. Keeps at most a handful; extras are
    /// dropped.
    pub fn recycle(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }

    /// Enqueue an encoded frame. Blocks while the queue is over capacity
    /// (a frame larger than the whole capacity is admitted alone, so no
    /// frame size can deadlock the pipeline). Returns `Err` if the
    /// channel was closed.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), String> {
        let len = frame.len();
        let mut q = self.q.lock().unwrap();
        while !q.closed && q.used > 0 && q.used + len > self.capacity {
            q = self.can_send.wait(q).unwrap();
        }
        if q.closed {
            return Err("send on closed channel".to_string());
        }
        let now = Instant::now();
        let ready = match self.bytes_per_sec {
            None => now,
            Some(bw) => {
                let start = match q.link_free {
                    Some(f) if f > now => f,
                    _ => now,
                };
                let ready = start + Duration::from_secs_f64(len as f64 / bw);
                q.link_free = Some(ready);
                self.metered_bytes.fetch_add(len as u64, Ordering::Relaxed);
                ready
            }
        };
        q.used += len;
        q.frames.push_back((frame, ready));
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.can_recv.notify_one();
        Ok(())
    }

    /// Dequeue the next frame, blocking until one is available *and* its
    /// transfer time has elapsed. Returns `None` once the channel is
    /// closed and drained.
    pub fn recv(&self) -> Option<Vec<u8>> {
        let mut q = self.q.lock().unwrap();
        loop {
            if let Some((_, ready)) = q.frames.front() {
                let now = Instant::now();
                if *ready <= now {
                    let (frame, _) = q.frames.pop_front().unwrap();
                    q.used -= frame.len();
                    self.can_send.notify_one();
                    return Some(frame);
                }
                let wait = *ready - now;
                let (guard, _) = self.can_recv.wait_timeout(q, wait).unwrap();
                q = guard;
            } else if q.closed {
                return None;
            } else {
                q = self.can_recv.wait(q).unwrap();
            }
        }
    }

    /// Close the channel: senders fail, receivers drain then get `None`.
    pub fn close(&self) {
        let mut q = self.q.lock().unwrap();
        q.closed = true;
        self.can_send.notify_all();
        self.can_recv.notify_all();
    }

    /// Sender-side counters.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            metered_bytes: self.metered_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_and_counters() {
        let c = ByteChannel::new(1024, None);
        c.send(vec![1, 2, 3]).unwrap();
        c.send(vec![4]).unwrap();
        assert_eq!(c.recv().unwrap(), vec![1, 2, 3]);
        assert_eq!(c.recv().unwrap(), vec![4]);
        assert_eq!(
            c.stats(),
            ChannelStats {
                frames: 2,
                bytes: 4,
                metered_bytes: 0,
            }
        );
    }

    #[test]
    fn capacity_blocks_sender_until_receiver_drains() {
        let c = Arc::new(ByteChannel::new(8, None));
        c.send(vec![0; 8]).unwrap();
        let c2 = Arc::clone(&c);
        let sender = thread::spawn(move || {
            // Blocks until the receiver drains the first frame.
            c2.send(vec![1; 8]).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        assert!(!sender.is_finished(), "sender should be backpressured");
        assert_eq!(c.recv().unwrap().len(), 8);
        sender.join().unwrap();
        assert_eq!(c.recv().unwrap(), vec![1; 8]);
    }

    #[test]
    fn oversized_frame_is_admitted_alone() {
        let c = ByteChannel::new(4, None);
        c.send(vec![0; 64]).unwrap(); // larger than capacity, queue empty
        assert_eq!(c.recv().unwrap().len(), 64);
    }

    #[test]
    fn throttle_delays_delivery_by_transfer_time() {
        // 10 KB at 100 KB/s = 100 ms on the wire.
        let c = ByteChannel::new(1 << 20, Some(100_000.0));
        let t0 = Instant::now();
        c.send(vec![0; 10_000]).unwrap();
        let sent_at = t0.elapsed();
        assert!(sent_at < Duration::from_millis(50), "send must not block");
        let _ = c.recv().unwrap();
        let got_at = t0.elapsed();
        assert!(
            got_at >= Duration::from_millis(95),
            "frame arrived after {got_at:?}, expected ~100ms"
        );
        assert_eq!(c.stats().metered_bytes, 10_000);
    }

    #[test]
    fn link_is_serial_under_throttle() {
        // Two 5 KB frames share the link: second arrives ~100ms in.
        let c = ByteChannel::new(1 << 20, Some(100_000.0));
        let t0 = Instant::now();
        c.send(vec![0; 5_000]).unwrap();
        c.send(vec![0; 5_000]).unwrap();
        let _ = c.recv().unwrap();
        let _ = c.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(95));
    }

    #[test]
    fn recycled_buffers_are_reused_with_capacity_intact() {
        let c = ByteChannel::new(1024, None);
        assert!(c.take_buffer().is_empty(), "fresh buffer must be empty");
        let mut b = Vec::with_capacity(256);
        b.extend_from_slice(&[7; 100]);
        c.recycle(b);
        let got = c.take_buffer();
        assert!(got.is_empty(), "recycled buffer must come back cleared");
        assert!(got.capacity() >= 256, "recycled capacity was lost");
        // The list is bounded: flooding it must not grow without limit.
        for _ in 0..64 {
            c.recycle(Vec::with_capacity(64));
        }
        assert!(c.pool.lock().unwrap().len() <= POOL_CAP);
    }

    #[test]
    fn pooled_send_path_leaves_wire_bytes_and_counters_unchanged() {
        // The same payload sequence through the pooled path (take_buffer /
        // send / recv / recycle) and the plain path must hit the wire
        // identically: same frame count, same byte count, same contents.
        let payloads: Vec<Vec<u8>> = (1u8..=5).map(|i| vec![i; i as usize * 17]).collect();

        let plain = ByteChannel::new(1 << 16, None);
        for p in &payloads {
            plain.send(p.clone()).unwrap();
        }
        let plain_recv: Vec<Vec<u8>> = payloads.iter().map(|_| plain.recv().unwrap()).collect();

        let pooled = ByteChannel::new(1 << 16, None);
        let mut pooled_recv = Vec::new();
        for p in &payloads {
            let mut buf = pooled.take_buffer();
            buf.extend_from_slice(p);
            pooled.send(buf).unwrap();
            let got = pooled.recv().unwrap();
            pooled_recv.push(got.clone());
            pooled.recycle(got);
        }

        assert_eq!(plain_recv, pooled_recv);
        assert_eq!(plain.stats(), pooled.stats());
        assert_eq!(
            pooled.stats(),
            ChannelStats {
                frames: payloads.len() as u64,
                bytes: payloads.iter().map(|p| p.len() as u64).sum(),
                metered_bytes: 0,
            }
        );
    }

    #[test]
    fn close_wakes_receiver_with_none() {
        let c = Arc::new(ByteChannel::new(16, None));
        let c2 = Arc::clone(&c);
        let rx = thread::spawn(move || c2.recv());
        thread::sleep(Duration::from_millis(10));
        c.close();
        assert!(rx.join().unwrap().is_none());
        assert!(c.send(vec![1]).is_err());
    }
}
