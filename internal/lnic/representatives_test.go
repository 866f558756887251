package lnic

import (
	"maps"
	"reflect"
	"testing"

	"clara/internal/cir"
)

// wantReps checks that every unit of l named in to maps to the unit named
// there, and every other unit to itself.
func wantReps(t *testing.T, l *LNIC, to map[string]string) {
	t.Helper()
	rep := l.Representatives()
	for j, u := range l.Units {
		want := j
		if name, ok := to[u.Name]; ok {
			want = unitByName(t, l, name)
		}
		if rep[j] != want {
			t.Errorf("%s: %s represented by %s, want %s", l.Name, u.Name, l.Units[rep[j]].Name, l.Units[want].Name)
		}
	}
}

func TestRepresentativesBuiltins(t *testing.T) {
	npus := map[string]string{}
	arms := map[string]string{}
	for _, i := range "1234567" {
		npus["npu"+string(i)] = "npu0"
		arms["arm"+string(i)] = "arm0"
	}
	wantReps(t, Netronome(), npus)
	wantReps(t, ARMSoC(), arms)
	// The match-action stages differ in Stage, so each is its own class.
	wantReps(t, PipelineASIC(), nil)
}

// TestRepresentativesKeepAcceleratorsApart: a second checksum accelerator
// equal to the first in every field and edge still gets its own class,
// since each accelerator has its own utilization row.
func TestRepresentativesKeepAcceleratorsApart(t *testing.T) {
	l := Netronome()
	first := unitByName(t, l, "cksum-accel")
	twin := l.Units[first]
	twin.Name = "cksum-accel2"
	id := l.addUnit(twin)
	for _, e := range l.CompMem {
		if e.Unit == first {
			l.connect(id, e.Mem, e.ExtraCycles)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep := l.Representatives(); rep[id] != id || rep[first] != first {
		t.Errorf("accelerators %d and %d represented by %d and %d, want themselves", first, id, rep[first], rep[id])
	}
}

// TestRepresentativesSplitOnOneField changes one field of npu3 and checks
// that it leaves npu0's class while npu1..7 stay in it.
func TestRepresentativesSplitOnOneField(t *testing.T) {
	edits := map[string]func(l *LNIC, u *ComputeUnit){
		"Stage": func(l *LNIC, u *ComputeUnit) { u.Stage++ },
		"ClassCycles": func(l *LNIC, u *ComputeUnit) {
			u.ClassCycles = maps.Clone(u.ClassCycles)
			u.ClassCycles[cir.ClassDiv]++
		},
		"LocalMem":    func(l *LNIC, u *ComputeUnit) { u.LocalMem = -1 },
		"FixedCycles": func(l *LNIC, u *ComputeUnit) { u.FixedCycles++ },
		"NJPerCycle":  func(l *LNIC, u *ComputeUnit) { u.NJPerCycle *= 2 },
		"CompMem": func(l *LNIC, u *ComputeUnit) {
			emem, _ := l.MemByName("emem")
			for k := range l.CompMem {
				if e := &l.CompMem[k]; e.Unit == u.ID && e.Mem == emem {
					e.ExtraCycles++
				}
			}
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			l := Netronome()
			edit(l, &l.Units[unitByName(t, l, "npu3")])
			to := map[string]string{}
			for _, i := range "124567" {
				to["npu"+string(i)] = "npu0"
			}
			wantReps(t, l, to)
		})
	}
}

// TestRepresentativesReadEveryField changes each ComputeUnit field but ID
// and Name of npu3, in turn, and checks that npu3 leaves npu0's class, so
// a field added to ComputeUnit cannot be left out of the rule unnoticed.
func TestRepresentativesReadEveryField(t *testing.T) {
	typ := reflect.TypeOf(ComputeUnit{})
	for f := 0; f < typ.NumField(); f++ {
		field := typ.Field(f)
		if field.Name == "ID" || field.Name == "Name" {
			continue
		}
		l := Netronome()
		npu3 := unitByName(t, l, "npu3")
		v := reflect.ValueOf(&l.Units[npu3]).Elem().Field(f)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Map:
			v.Set(reflect.ValueOf(map[cir.Class]float64{cir.ClassALU: 1}))
		default:
			t.Fatalf("field %s of kind %s: teach this test to change it", field.Name, v.Kind())
		}
		if rep := l.Representatives(); rep[npu3] != npu3 {
			t.Errorf("npu3 with %s changed is represented by %s", field.Name, l.Units[rep[npu3]].Name)
		}
	}
}
