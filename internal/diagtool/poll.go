package diagtool

import (
	"fmt"
	"math"

	"dpreverser/internal/vehicle"

	"dpreverser/internal/kwp"
	"dpreverser/internal/obd"
	"dpreverser/internal/uds"
)

// maxDIDsPerRequest bounds how many DIDs one ReadDataByIdentifier request
// carries. Two keeps the request itself single-frame while data-bearing
// responses straddle the single/multi boundary — the Table 9 mix (55%
// single, 32% multi).
const maxDIDsPerRequest = 2

// Poll performs one refresh cycle for the current screen: live data
// screens re-read their values from the vehicle; other screens are static.
// The rig calls Poll on a fixed cadence while recording.
func (t *Tool) Poll() {
	switch t.screen {
	case "live-data":
		t.pollLiveData()
	case "obd-live":
		t.pollOBD()
	}
}

func (t *Tool) pollLiveData() {
	if len(t.liveRows) == 0 {
		return
	}
	t.ensureSession(t.selectedECU)
	c, err := t.client(t.selectedECU)
	if err != nil {
		t.pollErrs++
		return
	}
	if t.veh.Profile.Protocol == vehicle.UDS {
		t.pollUDS(c)
		return
	}
	t.pollKWP(c)
}

func (t *Tool) pollUDS(c vehicle.Client) {
	// Batch the selected DIDs in row order.
	for start := 0; start < len(t.liveRows); start += maxDIDsPerRequest {
		end := start + maxDIDsPerRequest
		if end > len(t.liveRows) {
			end = len(t.liveRows)
		}
		batch := t.liveRows[start:end]
		dids := make([]uint16, len(batch))
		for i, row := range batch {
			dids[i] = t.streams[row.streamIdx].DID
		}
		req, err := uds.BuildRDBIRequest(dids...)
		if err != nil {
			t.pollErrs++
			continue
		}
		resp, err := t.request(c, req)
		if err != nil || !uds.IsPositiveResponse(resp, uds.SIDReadDataByIdentifier) {
			t.pollErrs++
			continue
		}
		records, err := uds.ParseRDBIResponse(resp, dids)
		if err != nil {
			t.pollErrs++
			continue
		}
		for i, rec := range records {
			row := &t.liveRows[start+i]
			item := t.streams[row.streamIdx]
			if v, ok := item.Decode(rec.Data); ok {
				row.value = formatValue(v, item.Enum)
				row.hasValue = true
			}
		}
	}
}

func (t *Tool) pollKWP(c vehicle.Client) {
	// VCDS-style prologue: read the controller identification once.
	if !t.identRead[t.selectedECU] {
		t.identRead[t.selectedECU] = true
		if _, err := t.request(c, kwp.BuildIdentRequest(kwp.IdentOptionECUIdent)); err != nil {
			t.pollErrs++
		}
	}
	// One read per measuring block that has a selected row.
	blocks := map[byte]bool{}
	for _, row := range t.liveRows {
		blocks[t.streams[row.streamIdx].LocalID] = true
	}
	for lid := byte(0); lid < 0xFF; lid++ {
		if !blocks[lid] {
			continue
		}
		resp, err := t.request(c, kwp.BuildReadRequest(lid))
		if err != nil || !kwp.IsPositiveResponse(resp, kwp.SIDReadDataByLocalIdentifier) {
			t.pollErrs++
			continue
		}
		_, esvs, err := kwp.ParseReadResponse(resp)
		if err != nil {
			t.pollErrs++
			continue
		}
		for i := range t.liveRows {
			row := &t.liveRows[i]
			item := t.streams[row.streamIdx]
			if item.LocalID != lid || item.ESVIndex >= len(esvs) {
				continue
			}
			e := esvs[item.ESVIndex]
			raw := []byte{e.FType, e.X0, e.X1}
			if v, ok := item.Decode(raw); ok {
				row.value = formatValue(v, item.Enum)
				row.hasValue = true
			}
		}
	}
}

type obdRow struct {
	pid      byte
	value    string
	hasValue bool
}

func (t *Tool) pollOBD() {
	if t.obdClient == nil {
		t.obdClient = vehicle.ConnectOBD(t.veh)
	}
	if len(t.obdRows) == 0 {
		for _, pid := range obd.PIDs() {
			t.obdRows = append(t.obdRows, obdRow{pid: pid})
		}
	}
	for i := range t.obdRows {
		row := &t.obdRows[i]
		resp, err := t.request(t.obdClient, obd.BuildRequest(row.pid))
		if err != nil {
			t.pollErrs++
			continue
		}
		_, v, err := obd.ParseResponse(resp)
		if err != nil {
			t.pollErrs++
			continue
		}
		row.value = formatValue(v, false)
		row.hasValue = true
	}
}

// dtcRow is one trouble-code display line.
type dtcRow struct {
	code   string
	status string
}

// readDTCs populates the trouble-code screen via ReadDTCInformation.
func (t *Tool) readDTCs() {
	t.dtcRows = nil
	if t.veh.Profile.Protocol != vehicle.UDS {
		return // the KWP DTC services are not modelled
	}
	c, err := t.client(t.selectedECU)
	if err != nil {
		t.pollErrs++
		return
	}
	resp, err := t.request(c, uds.BuildReadDTCRequest(0xFF))
	if err != nil {
		t.pollErrs++
		return
	}
	_, dtcs, err := uds.ParseReadDTCResponse(resp)
	if err != nil {
		t.pollErrs++
		return
	}
	for _, d := range dtcs {
		t.dtcRows = append(t.dtcRows, dtcRow{code: d.String(), status: fmt.Sprintf("%02X", d.Status)})
	}
}

// clearDTCs sends ClearDiagnosticInformation for all groups.
func (t *Tool) clearDTCs() {
	if t.veh.Profile.Protocol != vehicle.UDS {
		return
	}
	c, err := t.client(t.selectedECU)
	if err != nil {
		t.pollErrs++
		return
	}
	if _, err := t.request(c, uds.BuildClearDTCRequest(0xFFFFFF)); err != nil {
		t.pollErrs++
	}
}

// ensureUnlocked performs the vendor's seed-key exchange once per ECU on
// security-gated cars.
func (t *Tool) ensureUnlocked(ecuIdx int) {
	if !t.veh.Profile.SecuredIO || t.unlocked[ecuIdx] {
		return
	}
	c, err := t.client(ecuIdx)
	if err != nil {
		t.pollErrs++
		return
	}
	seedResp, err := t.request(c, []byte{uds.SIDSecurityAccess, 0x01})
	if err != nil || !uds.IsPositiveResponse(seedResp, uds.SIDSecurityAccess) || len(seedResp) < 3 {
		t.pollErrs++
		return
	}
	key := uds.DefaultSeedToKey(seedResp[2:])
	keyResp, err := t.request(c, append([]byte{uds.SIDSecurityAccess, 0x02}, key...))
	if err != nil || !uds.IsPositiveResponse(keyResp, uds.SIDSecurityAccess) {
		t.pollErrs++
		return
	}
	t.unlocked[ecuIdx] = true
}

// startActiveTest performs the paper's §4.5 control prologue for the
// selected actuator.
func (t *Tool) startActiveTest() {
	item := t.actuators[t.activeIdx]
	t.ensureSession(item.ECUIndex)
	t.ensureUnlocked(item.ECUIndex)
	c, err := t.client(item.ECUIndex)
	if err != nil {
		t.pollErrs++
		return
	}
	spec := item.Spec
	if spec.DID != 0 {
		// UDS IO control: freeze, then short-term adjustment.
		if _, err := t.request(c, uds.BuildIOControlRequest(uds.IOControlRequest{
			DID: spec.DID, Param: uds.IOFreezeCurrentState})); err != nil {
			t.pollErrs++
			return
		}
		if _, err := t.request(c, uds.BuildIOControlRequest(uds.IOControlRequest{
			DID: spec.DID, Param: uds.IOShortTermAdjustment, State: spec.State})); err != nil {
			t.pollErrs++
			return
		}
	} else {
		// Legacy IO control by local identifier (service 0x30).
		req := append([]byte{kwp.SIDIOControlByLocalIdentifier, spec.LocalID, uds.IOShortTermAdjustment}, spec.State...)
		if _, err := t.request(c, req); err != nil {
			t.pollErrs++
			return
		}
	}
	t.testRunning = true
}

// stopActiveTest returns control to the ECU.
func (t *Tool) stopActiveTest() {
	if !t.testRunning {
		return
	}
	item := t.actuators[t.activeIdx]
	c, err := t.client(item.ECUIndex)
	if err != nil {
		t.pollErrs++
		return
	}
	spec := item.Spec
	if spec.DID != 0 {
		if _, err := t.request(c, uds.BuildIOControlRequest(uds.IOControlRequest{
			DID: spec.DID, Param: uds.IOReturnControlToECU})); err != nil {
			t.pollErrs++
		}
	} else {
		if _, err := t.request(c, []byte{kwp.SIDIOControlByLocalIdentifier, spec.LocalID, uds.IOReturnControlToECU}); err != nil {
			t.pollErrs++
		}
	}
	t.testRunning = false
}

// TestRunning reports whether an active test is driving an actuator.
func (t *Tool) TestRunning() bool { return t.testRunning }

// formatValue renders a value the way handheld tools do: textual state
// names for enums ("Off"/"On"/"State 3"), numbers with magnitude-dependent
// precision otherwise.
func formatValue(v float64, enum bool) string {
	if enum {
		return stateText(v)
	}
	return fmt.Sprintf("%.*f", displayDecimals(v), v)
}

// displayDecimals is how many decimals the tool shows for the numeric
// value v: 2 below 100, 1 below 1000, none from 1000 up (in magnitude).
func displayDecimals(v float64) int {
	switch {
	case v >= 1000 || v <= -1000:
		return 0
	case v >= 100 || v <= -100:
		return 1
	default:
		return 2
	}
}

// DisplayStep is the resolution the tool renders the numeric value v
// with: 0.01 below 100, 0.1 below 1000 and 1 from 1000 up (in
// magnitude). A value read off the screen is v rounded to this step.
func DisplayStep(v float64) float64 {
	return math.Pow10(-displayDecimals(v))
}

// stateText names a state value the way tools render stateful ESVs.
func stateText(v float64) string {
	switch int(v) {
	case 0:
		return "Off"
	case 1:
		return "On"
	default:
		return fmt.Sprintf("State %d", int(v))
	}
}
