package sim

// Disk models the storage device as parallel service channels. It is shared
// on one Engine timeline by foreground reads and prefetch reads, so
// saturating it with prefetch I/O delays foreground misses exactly as on a
// real device.
type Disk struct {
	free  []Time // next free instant of each channel
	reads uint64
}

// NewDisk returns a disk with the given positive number of channels (queue
// depth).
func NewDisk(channels int) *Disk { return &Disk{free: make([]Time, channels)} }

// Read schedules a read issued at time at with the given service latency and
// returns its completion time. The read occupies the earliest-available
// channel; if all channels are busy it queues behind the one that frees
// first.
func (d *Disk) Read(at Time, latency Duration) (done Time) {
	best := 0
	for i, f := range d.free {
		if f.Before(d.free[best]) {
			best = i
		}
	}
	start := at
	if d.free[best].After(start) {
		start = d.free[best]
	}
	done = start.Add(latency)
	d.free[best] = done
	d.reads++
	return done
}

// Reads returns the number of device reads serviced so far.
func (d *Disk) Reads() uint64 { return d.reads }
