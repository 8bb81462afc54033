package webevent

import (
	"testing"

	"repro/internal/simtime"
)

func TestQoSTargets(t *testing.T) {
	if LoadInteraction.QoSTarget() != 3*simtime.Second {
		t.Errorf("load QoS = %v, want 3s", LoadInteraction.QoSTarget())
	}
	if TapInteraction.QoSTarget() != 300*simtime.Millisecond {
		t.Errorf("tap QoS = %v, want 300ms", TapInteraction.QoSTarget())
	}
	if MoveInteraction.QoSTarget() != 33*simtime.Millisecond {
		t.Errorf("move QoS = %v, want 33ms", MoveInteraction.QoSTarget())
	}
}

func TestTypeInteractionMapping(t *testing.T) {
	cases := map[Type]Interaction{
		Load:       LoadInteraction,
		Click:      TapInteraction,
		TouchStart: TapInteraction,
		Submit:     TapInteraction,
		TouchMove:  MoveInteraction,
		Scroll:     MoveInteraction,
	}
	for typ, want := range cases {
		if got := typ.Interaction(); got != want {
			t.Errorf("%v.Interaction() = %v, want %v", typ, got, want)
		}
	}
	if !Click.IsTap() || Click.IsMove() {
		t.Error("Click should be a tap")
	}
	if !Scroll.IsMove() || Scroll.IsTap() {
		t.Error("Scroll should be a move")
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for _, typ := range AllTypes() {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", typ.String(), err)
		}
		if got != typ {
			t.Errorf("round trip %v -> %v", typ, got)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Error("expected error for unknown type")
	}
}

func TestAllTypesCount(t *testing.T) {
	if len(AllTypes()) != NumTypes {
		t.Errorf("AllTypes has %d entries, NumTypes = %d", len(AllTypes()), NumTypes)
	}
	if NumInteractions != 3 {
		t.Errorf("NumInteractions = %d, want 3", NumInteractions)
	}
}

func TestEventDeadlineAndSignature(t *testing.T) {
	e := &Event{
		Seq:     4,
		App:     "cnn",
		Type:    Click,
		Trigger: simtime.Time(10 * simtime.Second),
	}
	if e.QoSTarget() != 300*simtime.Millisecond {
		t.Errorf("QoSTarget = %v", e.QoSTarget())
	}
	want := simtime.Time(10*simtime.Second + 300*simtime.Millisecond)
	if e.Deadline() != want {
		t.Errorf("Deadline = %v, want %v", e.Deadline(), want)
	}
	sig := e.Signature()
	if sig.App != "cnn" || sig.Type != Click {
		t.Errorf("Signature = %+v", sig)
	}
	if e.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestTypeStrings(t *testing.T) {
	if Load.String() != "load" || Click.String() != "click" || Submit.String() != "submit" {
		t.Error("type names wrong")
	}
	if Type(99).String() == "" || Interaction(99).String() == "" {
		t.Error("unknown values should render something")
	}
	if LoadInteraction.String() != "load" || TapInteraction.String() != "tap" || MoveInteraction.String() != "move" {
		t.Error("interaction names wrong")
	}
	if Interaction(99).QoSTarget() != 300*simtime.Millisecond {
		t.Error("unknown interaction should default to the tap target")
	}
}
