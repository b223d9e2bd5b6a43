package analog

import (
	"reflect"
	"testing"
)

// Guard against silently adding a Config field without extending
// Fingerprint: distinct configurations would then alias in the engine's
// deployment cache and share hardware instances incorrectly.
func TestConfigFieldCountGuard(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n != configFieldCount {
		t.Fatalf("Config has %d fields but Fingerprint covers %d — "+
			"extend Fingerprint and bump configFieldCount", n, configFieldCount)
	}
}

func TestConfigFingerprintDistinguishesEveryField(t *testing.T) {
	base := PaperPreset()
	ref := base.Fingerprint()
	if ref != base.Fingerprint() {
		t.Fatal("fingerprint not stable")
	}

	// Perturb each field via reflection and require a distinct fingerprint.
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		mod := base
		v := reflect.ValueOf(&mod).Elem().Field(i)
		switch v.Kind() {
		case reflect.Struct: // NoiseStream
			if v.Type().Size() == 0 {
				continue // one value, nothing to distinguish
			}
			t.Fatalf("field %s: unhandled struct", typ.Field(i).Name)
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.125)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Array: // ProgPoly
			v.Index(0).SetFloat(v.Index(0).Float() + 0.125)
		default:
			t.Fatalf("field %s: unhandled kind %s", typ.Field(i).Name, v.Kind())
		}
		if mod.Fingerprint() == ref {
			t.Fatalf("changing field %s did not change the fingerprint", typ.Field(i).Name)
		}
	}
}

// TestFingerprintText pins the fingerprint text of the configurations the
// studies deploy. A fingerprint seeds every deployment, so a changed byte
// here moves every golden that deploys it.
func TestFingerprintText(t *testing.T) {
	fault := PaperPreset()
	fault.FaultRate = 0.02
	fault.PVRetries = 3
	fault.SpareCols = 4
	sliced := PaperPreset()
	sliced.WeightSlices, sliced.SliceBits = 2, 4
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"paper", PaperPreset(),
			"tile=512x512;gmax=25;in=64;out=64;innoise=0;outnoise=0.04;wnoise=0.0175;prog=1;poly=0,0,0;driftscale=0;ir=1;sshape=0;bound=12;bm=true,4;nm=0;alpha=0;pertile=false;wv=0;bitserial=false;slices=0,0;diffpair=true;adcoff=0;adcgain=0;driftt=0;driftcomp=false"},
		{"ideal", Ideal(),
			"tile=512x512;gmax=25;in=0;out=0;innoise=0;outnoise=0;wnoise=0;prog=0;poly=0,0,0;driftscale=0;ir=0;sshape=0;bound=1e+09;bm=false,0;nm=0;alpha=0;pertile=false;wv=0;bitserial=false;slices=0,0;diffpair=false;adcoff=0;adcgain=0;driftt=0;driftcomp=false"},
		{"reram", ReRAMPreset(),
			"tile=512x512;gmax=25;in=64;out=64;innoise=0;outnoise=0.04;wnoise=0.03;prog=1;poly=0.03,0,0;driftscale=0.1;ir=1;sshape=0;bound=12;bm=true,4;nm=0;alpha=0;pertile=false;wv=0;bitserial=false;slices=0,0;diffpair=true;adcoff=0;adcgain=0;driftt=0;driftcomp=false"},
		{"withonly", WithOnly(func(c *Config) { c.OutNoise = 0.04 }),
			"tile=512x512;gmax=25;in=0;out=0;innoise=0;outnoise=0.04;wnoise=0;prog=0;poly=0,0,0;driftscale=0;ir=0;sshape=0;bound=12;bm=true,4;nm=0;alpha=0;pertile=false;wv=0;bitserial=false;slices=0,0;diffpair=false;adcoff=0;adcgain=0;driftt=0;driftcomp=false"},
		{"fault", fault,
			"tile=512x512;gmax=25;in=64;out=64;innoise=0;outnoise=0.04;wnoise=0.0175;prog=1;poly=0,0,0;driftscale=0;ir=1;sshape=0;bound=12;bm=true,4;nm=0;alpha=0;pertile=false;wv=0;bitserial=false;slices=0,0;diffpair=true;adcoff=0;adcgain=0;driftt=0;driftcomp=false;fault=0.02,0;gmaxstd=0;pv=3,0;spare=4"},
		{"sliced", sliced,
			"tile=512x512;gmax=25;in=64;out=64;innoise=0;outnoise=0.04;wnoise=0.0175;prog=1;poly=0,0,0;driftscale=0;ir=1;sshape=0;bound=12;bm=true,4;nm=0;alpha=0;pertile=false;wv=0;bitserial=false;slices=2,4;diffpair=true;adcoff=0;adcgain=0;driftt=0;driftcomp=false"},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
