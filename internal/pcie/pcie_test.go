package pcie

import (
	"testing"
	"time"
)

func TestTransferDuration(t *testing.T) {
	b := New(Config{BandwidthHtoD: 1e9, BandwidthDtoH: 2e9, Latency: time.Millisecond})
	if got := b.TransferDuration(HostToDevice, 1e9); got != time.Second+time.Millisecond {
		t.Errorf("HtoD duration = %v", got)
	}
	if got := b.TransferDuration(DeviceToHost, 1e9); got != 500*time.Millisecond+time.Millisecond {
		t.Errorf("DtoH duration = %v", got)
	}
}

func TestDefaults(t *testing.T) {
	b := Default()
	cfg := b.Config()
	if cfg.BandwidthHtoD != DefaultBandwidth || cfg.BandwidthDtoH != DefaultBandwidth {
		t.Error("default bandwidth wrong")
	}
	if cfg.Latency != DefaultLatency {
		t.Error("default latency wrong")
	}
	// Negative latency disables it.
	if New(Config{Latency: -1}).Config().Latency != 0 {
		t.Error("negative latency must disable")
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "HtoD" || DeviceToHost.String() != "DtoH" {
		t.Error("Direction.String broken")
	}
}
