package main

import (
	"fmt"
	"math/rand"
	"reflect"
)

// The benchmark's types come in publisher/subscriber pairs written as
// two programmers would write one module: the subscriber's type has
// its own name, its own member names and its own field order, and
// conforms to the publisher's type only under the relaxed policy.

// Position is the nested struct of the stream object. Both sides use
// this one type, as two teams sharing a geometry package would: a
// nested struct whose members are renamed arrives with those members
// zeroed, because the subscriber never fetches the nested type's
// description (see README.md, "Known defect").
type Position struct {
	Lat float64
	Lon float64
}

// Reading is the publisher's stream object: strings, integers, a
// float, a bool, a string slice, a small map and a nested struct.
type Reading struct {
	Seq     uint64
	Station string
	Unit    string
	Count   int64
	Level   int32
	Value   float64
	Valid   bool
	Tags    []string
	Attrs   map[string]string
	Origin  Position
}

// SensorReading is the subscriber's spelling of Reading.
type SensorReading struct {
	IsValid       bool
	ReadingSeq    uint64
	StationName   string
	MeasuredValue float64
	UnitName      string
	SignalLevel   int32
	ReadingCount  int64
	ReadingTags   []string
	ExtraAttrs    map[string]string
	OriginPos     Position
}

// newReading generates the i-th stream object from rng.
func newReading(rng *rand.Rand, i int) Reading {
	tags := make([]string, 1+rng.Intn(3))
	for j := range tags {
		tags[j] = fmt.Sprintf("tag-%d", rng.Intn(1000))
	}
	return Reading{
		Seq:     uint64(i),
		Station: fmt.Sprintf("station-%04d", rng.Intn(10000)),
		Unit:    []string{"kPa", "degC", "m/s", "lux"}[rng.Intn(4)],
		Count:   rng.Int63n(1 << 40),
		Level:   int32(rng.Intn(1<<16) - 1<<15),
		Value:   rng.NormFloat64() * 100,
		Valid:   rng.Intn(2) == 0,
		Tags:    tags,
		Attrs: map[string]string{
			"site":  fmt.Sprintf("s%d", rng.Intn(100)),
			"owner": fmt.Sprintf("o%d", rng.Intn(100)),
		},
		Origin: Position{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180},
	}
}

// sameReading reports whether the subscriber's object carries every
// member of the sent one, through the renamed members.
func sameReading(want Reading, got *SensorReading) bool {
	return got != nil &&
		got.ReadingSeq == want.Seq &&
		got.StationName == want.Station &&
		got.UnitName == want.Unit &&
		got.ReadingCount == want.Count &&
		got.SignalLevel == want.Level &&
		got.MeasuredValue == want.Value &&
		got.IsValid == want.Valid &&
		reflect.DeepEqual(got.ReadingTags, want.Tags) &&
		reflect.DeepEqual(got.ExtraAttrs, want.Attrs) &&
		got.OriginPos == want.Origin
}

// The first-contact pairs: eight publisher types, each conforming
// under the relaxed policy to exactly one of eight subscriber types.

type Invoice struct {
	Number string
	Total  float64
	Paid   bool
	Lines  []string
}

type CustomerInvoice struct {
	InvoiceLines  []string
	IsPaid        bool
	InvoiceNumber string
	InvoiceTotal  float64
}

type Shipment struct {
	Carrier  string
	Weight   float64
	Parcels  int32
	Tracking string
}

type ShipmentOrder struct {
	TrackingCode string
	ParcelsCount int32
	ShipCarrier  string
	TotalWeight  float64
}

type Patient struct {
	Name      string
	Age       int
	Ward      string
	Allergies []string
}

type HospitalPatient struct {
	KnownAllergies []string
	WardCode       string
	PatientAge     int
	PatientName    string
}

type Flight struct {
	Code  string
	Seats int32
	Delay float64
	Gates map[string]string
}

type FlightPlan struct {
	BoardingGates map[string]string
	DelayMinutes  float64
	FlightCode    string
	FreeSeats     int32
}

type Account struct {
	Owner   string
	Balance float64
	Frozen  bool
	Limit   int64
}

type BankAccount struct {
	CreditLimit    int64
	IsFrozen       bool
	AccountBalance float64
	AccountOwner   string
}

type Sensor struct {
	Model  string
	Serial uint64
	Temp   float64
	Labels []string
}

type SensorDevice struct {
	DeviceLabels []string
	TempValue    float64
	SerialNo     uint64
	DeviceModel  string
}

type Ticket struct {
	Title    string
	Priority int32
	Open     bool
	Watchers []string
}

type SupportTicket struct {
	TicketWatchers []string
	IsOpen         bool
	TicketPriority int32
	TicketTitle    string
}

type Vehicle struct {
	Plate    string
	Mileage  int64
	Electric bool
	Extras   map[string]string
}

type FleetVehicle struct {
	VehicleExtras map[string]string
	IsElectric    bool
	TotalMileage  int64
	LicensePlate  string
}

// contactPair is one first-contact type pair: a generator for the
// publisher's object and a check of what the subscriber received.
type contactPair struct {
	pub   interface{} // zero value of the publisher's type
	sub   interface{} // zero value of the subscriber's interest
	gen   func(rng *rand.Rand) interface{}
	match func(sent, got interface{}) bool
}

// matchAs adapts a typed comparison of a sent object and the
// subscriber's bound pointer to contactPair.match, failing on any
// other dynamic types.
func matchAs[S any, G any](f func(S, *G) bool) func(sent, got interface{}) bool {
	return func(sent, got interface{}) bool {
		s, ok := sent.(S)
		g, gok := got.(*G)
		return ok && gok && g != nil && f(s, g)
	}
}

func word(rng *rand.Rand, prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, rng.Intn(100000))
}

func words(rng *rand.Rand, prefix string) []string {
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = word(rng, prefix)
	}
	return out
}

var contactPairs = []contactPair{
	{Invoice{}, CustomerInvoice{},
		func(rng *rand.Rand) interface{} {
			return Invoice{word(rng, "inv"), rng.Float64() * 1e4, rng.Intn(2) == 0, words(rng, "line")}
		},
		matchAs(func(s Invoice, g *CustomerInvoice) bool {
			return g.InvoiceNumber == s.Number && g.InvoiceTotal == s.Total && g.IsPaid == s.Paid &&
				reflect.DeepEqual(g.InvoiceLines, s.Lines)
		})},
	{Shipment{}, ShipmentOrder{},
		func(rng *rand.Rand) interface{} {
			return Shipment{word(rng, "carrier"), rng.Float64() * 500, int32(rng.Intn(50)), word(rng, "trk")}
		},
		matchAs(func(s Shipment, g *ShipmentOrder) bool {
			return g.ShipCarrier == s.Carrier && g.TotalWeight == s.Weight && g.ParcelsCount == s.Parcels &&
				g.TrackingCode == s.Tracking
		})},
	{Patient{}, HospitalPatient{},
		func(rng *rand.Rand) interface{} {
			return Patient{word(rng, "name"), rng.Intn(100), word(rng, "ward"), words(rng, "allergy")}
		},
		matchAs(func(s Patient, g *HospitalPatient) bool {
			return g.PatientName == s.Name && g.PatientAge == s.Age && g.WardCode == s.Ward &&
				reflect.DeepEqual(g.KnownAllergies, s.Allergies)
		})},
	{Flight{}, FlightPlan{},
		func(rng *rand.Rand) interface{} {
			return Flight{word(rng, "fl"), int32(rng.Intn(300)), rng.Float64() * 120,
				map[string]string{"dep": word(rng, "g"), "arr": word(rng, "g")}}
		},
		matchAs(func(s Flight, g *FlightPlan) bool {
			return g.FlightCode == s.Code && g.FreeSeats == s.Seats && g.DelayMinutes == s.Delay &&
				reflect.DeepEqual(g.BoardingGates, s.Gates)
		})},
	{Account{}, BankAccount{},
		func(rng *rand.Rand) interface{} {
			return Account{word(rng, "owner"), rng.Float64() * 1e6, rng.Intn(2) == 0, rng.Int63n(1e9)}
		},
		matchAs(func(s Account, g *BankAccount) bool {
			return g.AccountOwner == s.Owner && g.AccountBalance == s.Balance && g.IsFrozen == s.Frozen &&
				g.CreditLimit == s.Limit
		})},
	{Sensor{}, SensorDevice{},
		func(rng *rand.Rand) interface{} {
			return Sensor{word(rng, "model"), rng.Uint64(), rng.NormFloat64() * 30, words(rng, "label")}
		},
		matchAs(func(s Sensor, g *SensorDevice) bool {
			return g.DeviceModel == s.Model && g.SerialNo == s.Serial && g.TempValue == s.Temp &&
				reflect.DeepEqual(g.DeviceLabels, s.Labels)
		})},
	{Ticket{}, SupportTicket{},
		func(rng *rand.Rand) interface{} {
			return Ticket{word(rng, "title"), int32(rng.Intn(5)), rng.Intn(2) == 0, words(rng, "user")}
		},
		matchAs(func(s Ticket, g *SupportTicket) bool {
			return g.TicketTitle == s.Title && g.TicketPriority == s.Priority && g.IsOpen == s.Open &&
				reflect.DeepEqual(g.TicketWatchers, s.Watchers)
		})},
	{Vehicle{}, FleetVehicle{},
		func(rng *rand.Rand) interface{} {
			return Vehicle{word(rng, "plate"), rng.Int63n(1e6), rng.Intn(2) == 0,
				map[string]string{"color": word(rng, "c")}}
		},
		matchAs(func(s Vehicle, g *FleetVehicle) bool {
			return g.LicensePlate == s.Plate && g.TotalMileage == s.Mileage && g.IsElectric == s.Electric &&
				reflect.DeepEqual(g.VehicleExtras, s.Extras)
		})},
}

// LedgerEntry is the small struct the invoke workload passes and
// returns. Both peers register this one Go type.
type LedgerEntry struct {
	Account string
	Amount  int64
	Rate    float64
	Memo    string
	Version int32
}

// AuditLedger is the server's exported type.
type AuditLedger struct {
	Book string
}

// StampEntry records note on e and returns the stamped entry.
func (l *AuditLedger) StampEntry(e LedgerEntry, note string) LedgerEntry {
	return stamp(e, note)
}

// Ledger is the client's conformant view of AuditLedger: the method
// is named Stamp and takes its arguments in the other order.
type Ledger struct {
	Book string
}

// Stamp records note on e and returns the stamped entry.
func (l *Ledger) Stamp(note string, e LedgerEntry) LedgerEntry {
	return stamp(e, note)
}

// stamp is the call's contract, shared so the client can compute each
// expected result.
func stamp(e LedgerEntry, note string) LedgerEntry {
	e.Memo = note
	e.Version++
	e.Amount += int64(len(note))
	return e
}

// invokeArgs is one generated call: the note and the entry.
type invokeArgs struct {
	note  string
	entry LedgerEntry
}

func newInvokeArgs(rng *rand.Rand) invokeArgs {
	return invokeArgs{
		note: word(rng, "note"),
		entry: LedgerEntry{
			Account: word(rng, "acct"),
			Amount:  rng.Int63n(1e9),
			Rate:    rng.Float64(),
			Version: int32(rng.Intn(100)),
		},
	}
}
