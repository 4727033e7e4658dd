// Package dram models the conventional memory backends the ZnG paper
// compares against: GDDR5 (six GPU memory controllers), desktop DDR4,
// mobile LPDDR4, and Intel Optane DC PMM with the Table I timing
// (tRCD 190 ns, tCL 8.9 ns, tRP 763 ns) and its 256 B internal access
// granularity — the reason a 128 B GPU sector wastes half of Optane's
// device bandwidth.
package dram

import (
	"zng/internal/config"
	"zng/internal/mem"
	"zng/internal/sim"
	"zng/internal/stats"
)

// Device is a multi-controller memory backend. It implements
// mem.Memory.
type Device struct {
	cfg   config.DRAM
	eng   *sim.Engine
	ports []*sim.Port

	transfers sim.FreeList[transfer]

	Reads, Writes stats.Counter
	Bytes         stats.Counter
}

// New builds a backend from a config.DRAM description.
func New(eng *sim.Engine, cfg config.DRAM) *Device {
	d := &Device{cfg: cfg, eng: eng}
	per := cfg.TotalGBps / float64(cfg.Controllers)
	for i := 0; i < cfg.Controllers; i++ {
		d.ports = append(d.ports, sim.NewPort(eng, config.GBpsToBytesPerTick(per), 0))
	}
	return d
}

// Kind reports the memory technology.
func (d *Device) Kind() config.DRAMKind { return d.cfg.Kind }

// Access services one request: channel selection by address, device
// access-granularity rounding, bandwidth serialization, then the
// device read or write latency.
func (d *Device) Access(r *mem.Request) {
	gran := d.cfg.AccessGran
	if gran <= 0 {
		gran = 128
	}
	// Interleave at access granularity across controllers.
	ctrl := int(r.Addr/uint64(gran)) % len(d.ports)

	// A request smaller than the device granularity still moves a full
	// device burst; larger requests round up to whole bursts.
	bursts := (r.Size + gran - 1) / gran
	if bursts < 1 {
		bursts = 1
	}
	moved := bursts * gran

	lat := d.cfg.ReadLat
	if r.Write {
		d.Writes.Inc()
		lat = d.cfg.WriteLat
	} else {
		d.Reads.Inc()
	}
	d.Bytes.Add(uint64(moved))
	t := d.transfers.Get()
	t.d, t.r, t.lat = d, r, lat
	d.ports[ctrl].Send(moved, t)
}

// transfer is one access crossing its controller's channel. When the
// burst lands it charges the device latency, posting the request as
// its own completion event.
type transfer struct {
	d   *Device
	r   *mem.Request
	lat sim.Tick
}

// Fire runs when the channel has moved the burst.
func (t *transfer) Fire() {
	d, r, lat := t.d, t.r, t.lat
	t.r = nil
	d.transfers.Put(t)
	d.eng.Post(lat, r)
}

// DeliveredGBps reports achieved bandwidth over the elapsed ticks.
func (d *Device) DeliveredGBps(elapsed sim.Tick) float64 {
	if elapsed <= 0 {
		return 0
	}
	return config.BytesPerTickToGBps(float64(d.Bytes.Value()) / float64(elapsed))
}
