package vehicle

// Protocol selects the diagnostic application layer a car speaks.
type Protocol int

// Protocols.
const (
	UDS Protocol = iota
	KWP2000
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == KWP2000 {
		return "KWP 2000"
	}
	return "UDS"
}

// Transport selects the network/transport layer beneath the diagnostics.
type Transport int

// Transports.
const (
	// ISOTP is ISO 15765-2 normal addressing.
	ISOTP Transport = iota
	// VWTP is VW TP 2.0 (VAG KWP 2000 cars).
	VWTP
	// BMWExt is ISO-TP extended addressing with a leading ECU-address byte
	// (BMW / Mini, §3.2 Step 2).
	BMWExt
)

// testerAddr is the address byte of the tool's side under BMW extended
// addressing: ECUs stamp it on their responses.
const testerAddr = 0xF1

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case VWTP:
		return "VW TP 2.0"
	case BMWExt:
		return "BMW extended addressing"
	default:
		return "ISO 15765-2"
	}
}

// Profile describes one car of the fleet: identity (Table 3), ESV inventory
// (Table 6), and actuator inventory (Table 11).
type Profile struct {
	// Car is the paper's label ("Car A").
	Car string
	// Model is the vehicle model.
	Model string
	// Protocol and Transport select the stack.
	Protocol  Protocol
	Transport Transport
	// Tool names the diagnostic tool the paper used on this car.
	Tool string
	// NumFormulaESVs and NumEnumESVs size the readable inventory
	// (Table 6 columns).
	NumFormulaESVs int
	NumEnumESVs    int
	// NumECRs sizes the controllable inventory (Table 11); 0 when the
	// paper did not run active tests on the car.
	NumECRs int
	// ECRService is 0x2F (UDS IO control) or 0x30 (IO control by local
	// identifier), matching Table 11's Service ID column.
	ECRService byte
	// SecuredIO marks cars whose IO control sits behind UDS security
	// access (the tool unlocks with the vendor's seed-key algorithm
	// before active tests).
	SecuredIO bool
	// Seed drives every per-car random decision (DID assignment, formula
	// constants, signal phases).
	Seed int64
}

// Fleet returns the 18-car fleet of Table 3, with inventories sized to
// Tables 6 and 11.
func Fleet() []Profile {
	return []Profile{
		{Car: "Car A", Model: "Skoda Octavia", Protocol: UDS, Transport: ISOTP,
			Tool: "LAUNCH X431", NumFormulaESVs: 28, NumEnumESVs: 0, NumECRs: 11, ECRService: 0x2F, Seed: 101},
		{Car: "Car B", Model: "Volkswagen Magotan", Protocol: KWP2000, Transport: VWTP,
			Tool: "VCDS", NumFormulaESVs: 8, NumEnumESVs: 0, Seed: 102},
		{Car: "Car C", Model: "Volkswagen Lavida", Protocol: KWP2000, Transport: VWTP,
			Tool: "LAUNCH X431", NumFormulaESVs: 5, NumEnumESVs: 0, Seed: 103},
		{Car: "Car D", Model: "Lexus NX300", Protocol: UDS, Transport: ISOTP,
			Tool: "Techstream", NumFormulaESVs: 12, NumEnumESVs: 5, NumECRs: 5, ECRService: 0x30, Seed: 104},
		{Car: "Car E", Model: "Mini Cooper R56", Protocol: UDS, Transport: BMWExt,
			Tool: "AUTEL 919", NumFormulaESVs: 5, NumEnumESVs: 4, NumECRs: 3, ECRService: 0x30, Seed: 105},
		{Car: "Car F", Model: "Mini Cooper R59", Protocol: UDS, Transport: BMWExt,
			Tool: "AUTEL 919", NumFormulaESVs: 8, NumEnumESVs: 5, NumECRs: 5, ECRService: 0x30, Seed: 106},
		{Car: "Car G", Model: "BMW i3", Protocol: UDS, Transport: BMWExt,
			Tool: "AUTEL 919", NumFormulaESVs: 5, NumEnumESVs: 22, Seed: 107},
		{Car: "Car H", Model: "RongWei MARVEL X", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 5, NumEnumESVs: 13, NumECRs: 6, ECRService: 0x2F,
			SecuredIO: true, Seed: 108},
		{Car: "Car I", Model: "Changan Eado", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 11, NumEnumESVs: 0, NumECRs: 10, ECRService: 0x2F, Seed: 109},
		{Car: "Car J", Model: "BMW 532Li", Protocol: UDS, Transport: BMWExt,
			Tool: "AUTEL 919", NumFormulaESVs: 20, NumEnumESVs: 20, NumECRs: 27, ECRService: 0x30, Seed: 110},
		{Car: "Car K", Model: "Volkswagen Passat", Protocol: KWP2000, Transport: VWTP,
			Tool: "AUTEL 919", NumFormulaESVs: 41, NumEnumESVs: 0, Seed: 111},
		{Car: "Car L", Model: "Toyota Corolla", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 29, NumEnumESVs: 20, Seed: 112},
		{Car: "Car M", Model: "Peugeot 308", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 4, NumEnumESVs: 14, Seed: 113},
		{Car: "Car N", Model: "Kia K2 (UC)", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 26, NumEnumESVs: 19, NumECRs: 21, ECRService: 0x2F, Seed: 114},
		{Car: "Car O", Model: "Ford Kuga", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 18, NumEnumESVs: 9, NumECRs: 4, ECRService: 0x2F, Seed: 115},
		{Car: "Car P", Model: "Honda Accord", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 7, NumEnumESVs: 6, Seed: 116},
		{Car: "Car Q", Model: "Nissan Teana", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 18, NumEnumESVs: 17, NumECRs: 32, ECRService: 0x30, Seed: 117},
		{Car: "Car R", Model: "Audi A4L", Protocol: UDS, Transport: ISOTP,
			Tool: "AUTEL 919", NumFormulaESVs: 40, NumEnumESVs: 2, Seed: 118},
	}
}

// ProfileByCar finds a fleet profile by its paper label.
func ProfileByCar(car string) (Profile, bool) {
	for _, p := range Fleet() {
		if p.Car == car {
			return p, true
		}
	}
	return Profile{}, false
}

// ecuNames is the pool of ECU identities ESVs are spread across.
var ecuNames = []string{
	"Engine", "Transmission", "ABS", "Body Control", "Instrument Cluster",
	"Steering", "Airbag", "Climate",
}
