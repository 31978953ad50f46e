//! DMA controller state: 8 channels with word-granular transfers, optional
//! circular reload, and done-interrupt routing.
//!
//! The movement engine lives in the fabric (it needs the crossbar); this
//! module holds channel state and the MMIO register interface. DMA matters
//! to the methodology because "significant activity (e.g. DMA channels)
//! occurs without any of the data passing through a processor core" — the
//! bus observation blocks are the only way to see it.

/// Number of DMA channels.
pub const DMA_CHANNELS: usize = 8;

/// One DMA channel's programming and live state.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmaChannel {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Remaining transfer count (words).
    pub count: u32,
    /// Source increment per beat (bytes, signed).
    pub src_inc: i32,
    /// Destination increment per beat (bytes, signed).
    pub dst_inc: i32,
    /// Channel enabled.
    pub enabled: bool,
    /// Reload `src`/`dst`/`count` when the block completes.
    pub circular: bool,
    /// SRN to raise on completion (`None` = silent).
    pub done_srn: Option<u8>,
    /// Outstanding hardware/software requests (beats to move).
    pub pending: u32,
    reload_src: u32,
    reload_dst: u32,
    reload_count: u32,
    /// Beats moved over the channel's lifetime.
    pub beats_done: u64,
}

impl DmaChannel {
    /// Latches current programming as the circular reload values.
    pub fn latch_reload(&mut self) {
        self.reload_src = self.src;
        self.reload_dst = self.dst;
        self.reload_count = self.count;
    }

    /// Applies the circular reload.
    pub fn reload(&mut self) {
        self.src = self.reload_src;
        self.dst = self.reload_dst;
        self.count = self.reload_count;
    }
}

/// The DMA controller's channel bank.
#[derive(Debug, Clone, Default)]
pub struct DmaState {
    /// The channels. Only this type's methods change them, so `ready`
    /// stays in step; [`DmaState::channels`] reads them.
    ch: [DmaChannel; DMA_CHANNELS],
    /// Engine busy until this cycle (single move engine).
    pub busy_until: u64,
    /// Channels with work, bit `c` for channel `c`: enabled, with a
    /// pending request and a non-zero count.
    ready: u8,
}

// One bit per channel in `DmaState::ready`.
const _: () = assert!(DMA_CHANNELS <= u8::BITS as usize);

impl DmaState {
    /// Creates an idle controller.
    #[must_use]
    pub fn new() -> DmaState {
        DmaState::default()
    }

    /// The channels' programming and live state.
    #[must_use]
    pub fn channels(&self) -> &[DmaChannel; DMA_CHANNELS] {
        &self.ch
    }

    /// Registers a transfer request (one beat) on `channel`.
    pub fn request(&mut self, channel: u8) {
        let chi = channel as usize % DMA_CHANNELS;
        let c = &mut self.ch[chi];
        if c.enabled {
            c.pending = c.pending.saturating_add(1);
            self.refresh(chi);
        }
    }

    /// Recomputes channel `chi`'s `ready` bit.
    fn refresh(&mut self, chi: usize) {
        let c = &self.ch[chi];
        let bit = 1u8 << chi;
        if c.enabled && c.pending > 0 && c.count > 0 {
            self.ready |= bit;
        } else {
            self.ready &= !bit;
        }
    }

    /// Picks the next channel with work (lowest number wins).
    #[inline]
    #[must_use]
    pub fn next_ready(&self) -> Option<usize> {
        let next = (self.ready != 0).then(|| self.ready.trailing_zeros() as usize);
        debug_assert_eq!(
            next,
            self.ch
                .iter()
                .position(|c| c.enabled && c.pending > 0 && c.count > 0),
            "ready mask out of step with the channels"
        );
        next
    }

    /// Books one moved beat on channel `chi`: steps its addresses and
    /// counts, and at the end of the block reloads a circular channel or
    /// disables it. Returns `true` when the block completed.
    pub(crate) fn retire_beat(&mut self, chi: usize) -> bool {
        let ch = &mut self.ch[chi];
        ch.src = ch.src.wrapping_add(ch.src_inc as u32);
        ch.dst = ch.dst.wrapping_add(ch.dst_inc as u32);
        ch.pending -= 1;
        ch.count -= 1;
        ch.beats_done += 1;
        let done = ch.count == 0;
        if done {
            if ch.circular {
                ch.reload();
            } else {
                ch.enabled = false;
                ch.pending = 0;
            }
        }
        self.refresh(chi);
        done
    }

    /// MMIO read. Register stride is 0x20 per channel.
    #[must_use]
    pub fn mmio_read(&self, offset: u32) -> u32 {
        let (ch, reg) = (offset / 0x20, offset % 0x20);
        let Some(c) = self.ch.get(ch as usize) else {
            return 0;
        };
        match reg {
            0x00 => c.src,
            0x04 => c.dst,
            0x08 => c.count,
            0x0C => {
                u32::from(c.enabled)
                    | (u32::from(c.circular) << 1)
                    | (c.done_srn.map_or(0, |s| u32::from(s) + 1) << 8)
            }
            0x10 => c.src_inc as u32,
            0x14 => c.dst_inc as u32,
            0x18 => c.pending,
            _ => 0,
        }
    }

    /// MMIO write.
    pub fn mmio_write(&mut self, offset: u32, value: u32) {
        let (chi, reg) = (offset / 0x20, offset % 0x20);
        let Some(c) = self.ch.get_mut(chi as usize) else {
            return;
        };
        match reg {
            0x00 => c.src = value,
            0x04 => c.dst = value,
            0x08 => c.count = value,
            0x0C => {
                c.enabled = value & 1 != 0;
                c.circular = value & 2 != 0;
                let srn_field = (value >> 8) & 0xFF;
                c.done_srn = if srn_field == 0 {
                    None
                } else {
                    Some((srn_field - 1) as u8)
                };
                if c.enabled {
                    c.latch_reload();
                }
            }
            0x10 => c.src_inc = value as i32,
            0x14 => c.dst_inc = value as i32,
            0x18 if c.enabled => {
                c.pending = c.pending.saturating_add(value.max(1));
            }
            _ => {}
        }
        self.refresh(chi as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmio_roundtrip() {
        let mut d = DmaState::new();
        d.mmio_write(0x20, 0x9000_0000); // ch1 src
        d.mmio_write(0x24, 0xD000_0000); // ch1 dst
        d.mmio_write(0x28, 16); // count
        d.mmio_write(0x30, 4); // src inc
        d.mmio_write(0x34, 4); // dst inc
        d.mmio_write(0x2C, 1 | 2 | ((9 + 1) << 8)); // enable, circular, srn 9
        assert_eq!(d.mmio_read(0x20), 0x9000_0000);
        assert_eq!(d.mmio_read(0x28), 16);
        let ctrl = d.mmio_read(0x2C);
        assert_eq!(ctrl & 3, 3);
        assert_eq!((ctrl >> 8) & 0xFF, 10);
        assert_eq!(d.ch[1].done_srn, Some(9));
    }

    #[test]
    fn requests_only_accumulate_when_enabled() {
        let mut d = DmaState::new();
        d.request(0);
        assert_eq!(d.ch[0].pending, 0);
        d.mmio_write(0x08, 4);
        d.mmio_write(0x0C, 1);
        d.request(0);
        d.request(0);
        assert_eq!(d.ch[0].pending, 2);
        assert_eq!(d.next_ready(), Some(0));
    }

    #[test]
    fn lowest_channel_wins() {
        let mut d = DmaState::new();
        for chi in [2u32, 5] {
            d.mmio_write(chi * 0x20 + 0x08, 1);
            d.mmio_write(chi * 0x20 + 0x0C, 1);
            d.request(chi as u8);
        }
        assert_eq!(d.next_ready(), Some(2));
    }

    #[test]
    fn circular_reload_restores_programming() {
        let mut d = DmaState::new();
        d.mmio_write(0x00, 100);
        d.mmio_write(0x04, 200);
        d.mmio_write(0x08, 8);
        d.mmio_write(0x0C, 3); // enable + circular (latches reload)
        d.ch[0].src = 999;
        d.ch[0].count = 0;
        d.ch[0].reload();
        assert_eq!(d.ch[0].src, 100);
        assert_eq!(d.ch[0].count, 8);
    }
}
