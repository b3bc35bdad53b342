package main

// pinnedFingerprints returns the sha256 fingerprints the outputs of
// the default seed are checked against.  They were measured on the
// code this benchmark was introduced with; a change that moves one
// changes what the program computes.
func pinnedFingerprints() map[string]string {
	return map[string]string{
		// core.EncodeStudy of the paper-scale campaign (base seed 1987).
		"paper_study": "f48b628e400cd4ac191c0c7272a71c253ed963757419919977e3ee1140a766ec",
		// core.EncodeStudy of the canonical quick-scale campaign.
		"quick_study": "0dfadcd070b9a57ce1e539f8ab97eeb4aedc8d3dedbde5a7f27f7dc3450ea761",
		// Every table and figure of the paper campaign, rendered.
		"paper_renders": "edeb52f8a8160a2e9744cac32ff39295fcdfff49adc468adb2efc7a73ef18d70",
		// The points of the default sweeps (seed 1987, 12 samples).
		"sweep.sched": "0c42cef0a6730ba6655d43e0abfd7baa4e40b50eef493c6f98582806a8d8bf8a",
		"sweep.cache": "c9531e1664f95aeff6aeeb355ce96bdb5dcbcd4035542ec36023b694f83722d7",
		"sweep.ce":    "1dae239486edf96bf27783417c419353dba3a78ed47c0c0e498f1957dddf9f88",
	}
}
