// Package pcie is the cost model of the PCIe interconnect of §4.4. The
// paper's end-to-end streaming exploits two properties of the bus: (1)
// it is full-duplex — host-to-device and device-to-host transfers
// proceed simultaneously at full bandwidth — and (2) transfers in the
// *same* direction serialise. This package prices one transfer
// (TransferDuration) with configurable per-direction bandwidth and
// per-transfer latency; stream.Simulate schedules those prices under
// the two properties. Only the Figure 12/13 experiments read it: the
// runtime streaming ring moves partitions through host memory and never
// waits on a modelled transfer.
package pcie

import "time"

// Direction identifies a transfer direction.
type Direction int

const (
	// HostToDevice (HtoD) carries raw input to the accelerator.
	HostToDevice Direction = iota
	// DeviceToHost (DtoH) returns parsed data.
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "HtoD"
	}
	return "DtoH"
}

// Config describes the modelled bus.
type Config struct {
	// BandwidthHtoD and BandwidthDtoH are bytes per second per direction.
	// Zero selects DefaultBandwidth.
	BandwidthHtoD float64
	BandwidthDtoH float64
	// Latency is the fixed per-transfer setup cost. Zero selects
	// DefaultLatency; negative disables.
	Latency time.Duration
}

// Default parameters model a PCIe 3.0 x16 link (§5 uses one): ~12 GB/s
// effective per direction and ~20 µs per transfer setup.
const (
	DefaultBandwidth = 12e9
	DefaultLatency   = 20 * time.Microsecond
)

// Bus is a modelled full-duplex interconnect. The zero value is not
// usable; construct with New.
type Bus struct {
	cfg Config
}

// New returns a Bus with the given configuration.
func New(cfg Config) *Bus {
	if cfg.BandwidthHtoD <= 0 {
		cfg.BandwidthHtoD = DefaultBandwidth
	}
	if cfg.BandwidthDtoH <= 0 {
		cfg.BandwidthDtoH = DefaultBandwidth
	}
	if cfg.Latency == 0 {
		cfg.Latency = DefaultLatency
	}
	if cfg.Latency < 0 {
		cfg.Latency = 0
	}
	return &Bus{cfg: cfg}
}

// Default returns a bus with PCIe 3.0 x16 parameters.
func Default() *Bus { return New(Config{}) }

// Config returns the effective configuration.
func (b *Bus) Config() Config { return b.cfg }

// TransferDuration returns the modelled duration for moving n bytes in
// the given direction.
func (b *Bus) TransferDuration(dir Direction, n int64) time.Duration {
	bw := b.cfg.BandwidthHtoD
	if dir == DeviceToHost {
		bw = b.cfg.BandwidthDtoH
	}
	return b.cfg.Latency + time.Duration(float64(n)/bw*float64(time.Second))
}
