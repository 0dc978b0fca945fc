package core

import (
	"reflect"
	"testing"
	"time"
)

// TestStatsAdd holds Add to its documented merge rules: counts, volumes,
// durations and phases sum, InvalidInput ORs, the column counts and the
// ring's depth and carry keep their maximum, and MinColumns keeps the
// minimum over the runs that saw a record.
func TestStatsAdd(t *testing.T) {
	full := Stats{
		InputBytes: 100, OutputBytes: 40, Chunks: 4, ReemittedChunks: 1, Records: 10, Columns: 3,
		MinColumns: 2, MaxColumns: 3, RowsPruned: 5, BytesSkipped: 30,
		QuarantinedRecords: 1, Phases: map[string]time.Duration{"parse": 2, "scan": 1},
		DeviceBytes: 64, Duration: 7, Partitions: 2, InFlight: 2, MaxCarryOver: 9,
		SerialFallbacks: 1, Retries: 3, RetriedBytes: 11, QuarantinedPartitions: 1,
		ReadBusy: 1, BoundaryBusy: 2, ParseBusy: 3, EmitBusy: 4,
	}
	cases := []struct {
		name string
		runs []Stats
		want Stats
	}{
		{"none", nil, Stats{}},
		{"one run is itself", []Stats{full}, full},
		{"sums", []Stats{
			{InputBytes: 1, OutputBytes: 2, Chunks: 3, ReemittedChunks: 2, Records: 4, RowsPruned: 5, BytesSkipped: 6,
				QuarantinedRecords: 7, DeviceBytes: 8, Duration: 9, Partitions: 10, SerialFallbacks: 11,
				Retries: 12, RetriedBytes: 13, QuarantinedPartitions: 14,
				ReadBusy: 15, BoundaryBusy: 16, ParseBusy: 17, EmitBusy: 18},
			{InputBytes: 10, OutputBytes: 20, Chunks: 30, ReemittedChunks: 20, Records: 40, RowsPruned: 50, BytesSkipped: 60,
				QuarantinedRecords: 70, DeviceBytes: 80, Duration: 90, Partitions: 100, SerialFallbacks: 110,
				Retries: 120, RetriedBytes: 130, QuarantinedPartitions: 140,
				ReadBusy: 150, BoundaryBusy: 160, ParseBusy: 170, EmitBusy: 180},
		}, Stats{InputBytes: 11, OutputBytes: 22, Chunks: 33, ReemittedChunks: 22, Records: 44, RowsPruned: 55, BytesSkipped: 66,
			QuarantinedRecords: 77, DeviceBytes: 88, Duration: 99, Partitions: 110, SerialFallbacks: 121,
			Retries: 132, RetriedBytes: 143, QuarantinedPartitions: 154,
			ReadBusy: 165, BoundaryBusy: 176, ParseBusy: 187, EmitBusy: 198}},
		{"invalid ORs", []Stats{{InvalidInput: false}, {InvalidInput: true}, {InvalidInput: false}},
			Stats{InvalidInput: true}},
		{"maxima", []Stats{
			{Columns: 3, MaxColumns: 4, MinColumns: 4, MaxCarryOver: 10, InFlight: 1},
			{Columns: 5, MaxColumns: 2, MinColumns: 2, MaxCarryOver: 7, InFlight: 4},
		}, Stats{Columns: 5, MaxColumns: 4, MinColumns: 2, MaxCarryOver: 10, InFlight: 4}},
		{"min over runs with records", []Stats{
			{MinColumns: 3, MaxColumns: 3},
			{}, // saw no record: its zero MinColumns is not a minimum
			{MinColumns: 1, MaxColumns: 2},
			{MinColumns: 2, MaxColumns: 5},
		}, Stats{MinColumns: 1, MaxColumns: 5}},
		{"no record first", []Stats{{}, {MinColumns: 2, MaxColumns: 2}}, Stats{MinColumns: 2, MaxColumns: 2}},
		{"no record at all", []Stats{{}, {Records: 0}}, Stats{}},
		{"phases merge by name", []Stats{
			{Phases: map[string]time.Duration{"parse": 1, "scan": 2}},
			{},
			{Phases: map[string]time.Duration{"parse": 10, "transcode": 5}},
		}, Stats{Phases: map[string]time.Duration{"parse": 11, "scan": 2, "transcode": 5}}},
	}
	for _, tc := range cases {
		var got Stats
		for _, r := range tc.runs {
			got.Add(r)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}

	// Add reads its argument and never writes into it.
	before := map[string]time.Duration{"parse": 2, "scan": 1}
	var acc Stats
	acc.Add(full)
	acc.Add(full)
	if !reflect.DeepEqual(full.Phases, before) {
		t.Errorf("Add wrote into its argument's phases: %v", full.Phases)
	}
}

// TestStatsDeviceTime: DeviceTime sums the phases, and Throughput is
// input bytes per second of wall time.
func TestStatsDeviceTime(t *testing.T) {
	s := Stats{Phases: map[string]time.Duration{"a": 2, "b": 3}, InputBytes: 2e6, Duration: time.Second}
	if got := s.DeviceTime(); got != 5 {
		t.Errorf("DeviceTime = %v, want 5ns", got)
	}
	if got := s.Throughput(); got != 2e6 {
		t.Errorf("Throughput = %v, want 2e6", got)
	}
	if got := (Stats{InputBytes: 1}).Throughput(); got != 0 {
		t.Errorf("Throughput without a duration = %v, want 0", got)
	}
}
