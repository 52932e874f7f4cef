// Package classfile defines the class universe of the simulated runtime:
// object classes with typed fields, array classes, static fields, and the
// layout metadata (field offsets and reference maps) that both the heap
// (for GC) and the JIT compiler (for prefetch offsets) consume.
//
// Object layout (see DESIGN.md):
//
//	offset 0  classID  uint32
//	offset 4  aux      uint32   (array length; 0 for plain objects)
//	offset 8  fwd      uint32   (GC forwarding pointer, 0 outside GC)
//	offset 12 pad      uint32
//	offset 16 first field slot / first array element
//
// Field slots are 4 bytes; long and double fields take two consecutive
// slots. References are 4-byte heap addresses (IA-32 analog).
package classfile

import (
	"fmt"
	"sort"

	"strider/internal/value"
)

// HeaderBytes is the size of every object header.
const HeaderBytes = 16

// Offsets of the header words.
const (
	ClassIDOffset = 0
	AuxOffset     = 4
	FwdOffset     = 8
)

// Field describes one instance or static field.
type Field struct {
	Class  *Class
	Name   string
	Kind   value.Kind
	Offset uint32 // byte offset from object base (instance fields only)
	Static bool
	Index  int // declaration index within the class
}

// QName returns "Class.field" for diagnostics.
func (f *Field) QName() string { return f.Class.Name + "." + f.Name }

// Class describes an object class or an array class.
type Class struct {
	ID    uint32
	Name  string
	Super *Class

	// Object classes.
	Fields       []*Field // instance fields, declaration order (incl. inherited, prefix)
	InstanceSize uint32   // header + field slots, 8-byte aligned
	RefOffsets   []uint32 // byte offsets of reference-kind instance fields

	// Array classes.
	IsArray  bool
	Elem     value.Kind // element kind for arrays
	ElemSize uint32     // element byte size for arrays

	fieldsByName map[string]*Field
}

// FieldByName returns the instance or static field with the given name,
// searching superclasses, or nil.
func (c *Class) FieldByName(name string) *Field {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.fieldsByName[name]; ok {
			return f
		}
	}
	return nil
}

// IsSubclassOf reports whether c is k or a subclass of k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// ArrayAlign aligns a byte size up to 8.
func ArrayAlign(n uint32) uint32 { return (n + 7) &^ 7 }

// ArraySize returns the total heap size of an array of the class with the
// given length.
func (c *Class) ArraySize(length uint32) uint32 {
	if !c.IsArray {
		panic("classfile: ArraySize on non-array class " + c.Name)
	}
	return ArrayAlign(HeaderBytes + length*c.ElemSize)
}

// Universe is the set of classes of one program. Class IDs are dense and
// start at 1 (ID 0 is reserved so a zeroed header word is invalid).
type Universe struct {
	classes []*Class // index = ID-1
	byName  map[string]*Class

	statics      []*Field // all static fields, in declaration order
	staticVals   []value.Value
	staticsByKey map[*Field]int

	// arrayByKind memoizes ArrayClass per element kind so the allocation
	// hot path never rebuilds the "<kind>[]" name string.
	arrayByKind [8]*Class
}

// NewUniverse returns an empty universe.
func NewUniverse() *Universe {
	return &Universe{
		byName:       make(map[string]*Class),
		staticsByKey: make(map[*Field]int),
	}
}

// FieldSpec declares a field when defining a class.
type FieldSpec struct {
	Name   string
	Kind   value.Kind
	Static bool
}

// DefineClass creates an object class. Instance fields of the superclass
// are inherited; offsets continue after them.
func (u *Universe) DefineClass(name string, super *Class, specs ...FieldSpec) (*Class, error) {
	if _, dup := u.byName[name]; dup {
		return nil, fmt.Errorf("classfile: duplicate class %q", name)
	}
	if super != nil && super.IsArray {
		return nil, fmt.Errorf("classfile: class %q cannot extend array class", name)
	}
	c := &Class{
		ID:           uint32(len(u.classes) + 1),
		Name:         name,
		Super:        super,
		fieldsByName: make(map[string]*Field),
	}
	next := uint32(HeaderBytes)
	if super != nil {
		c.Fields = append(c.Fields, super.Fields...)
		next = super.InstanceSize
		c.RefOffsets = append(c.RefOffsets, super.RefOffsets...)
	}
	for i, s := range specs {
		if s.Kind == value.KindInvalid || s.Kind == value.KindUnknown {
			return nil, fmt.Errorf("classfile: field %s.%s has invalid kind", name, s.Name)
		}
		f := &Field{Class: c, Name: s.Name, Kind: s.Kind, Static: s.Static, Index: i}
		if _, dup := c.fieldsByName[s.Name]; dup {
			return nil, fmt.Errorf("classfile: duplicate field %s.%s", name, s.Name)
		}
		c.fieldsByName[s.Name] = f
		if s.Static {
			u.staticsByKey[f] = len(u.statics)
			u.statics = append(u.statics, f)
			u.staticVals = append(u.staticVals, zeroOf(s.Kind))
			continue
		}
		if s.Kind == value.KindLong || s.Kind == value.KindDouble {
			next = (next + 7) &^ 7 // 8-byte align wide fields
		}
		f.Offset = next
		next += s.Kind.Size()
		c.Fields = append(c.Fields, f)
		if s.Kind == value.KindRef {
			c.RefOffsets = append(c.RefOffsets, f.Offset)
		}
	}
	c.InstanceSize = ArrayAlign(next)
	sort.Slice(c.RefOffsets, func(i, j int) bool { return c.RefOffsets[i] < c.RefOffsets[j] })
	u.classes = append(u.classes, c)
	u.byName[name] = c
	return c, nil
}

// MustDefineClass is DefineClass, panicking on error. Workload builders use
// it; malformed class sets are programming errors.
func (u *Universe) MustDefineClass(name string, super *Class, specs ...FieldSpec) *Class {
	c, err := u.DefineClass(name, super, specs...)
	if err != nil {
		panic(err)
	}
	return c
}

// ArrayClassName returns the canonical name of the array class with the
// given element kind, e.g. "ref[]" or "int[]".
func ArrayClassName(elem value.Kind) string { return elem.String() + "[]" }

// ArrayClass returns (creating on first use) the array class for the given
// element kind.
func (u *Universe) ArrayClass(elem value.Kind) *Class {
	if int(elem) < len(u.arrayByKind) {
		if c := u.arrayByKind[elem]; c != nil {
			return c
		}
	}
	name := ArrayClassName(elem)
	if c, ok := u.byName[name]; ok {
		if int(elem) < len(u.arrayByKind) {
			u.arrayByKind[elem] = c
		}
		return c
	}
	c := &Class{
		ID:           uint32(len(u.classes) + 1),
		Name:         name,
		IsArray:      true,
		Elem:         elem,
		ElemSize:     elemByteSize(elem),
		fieldsByName: map[string]*Field{},
	}
	u.classes = append(u.classes, c)
	u.byName[name] = c
	if int(elem) < len(u.arrayByKind) {
		u.arrayByKind[elem] = c
	}
	return c
}

func elemByteSize(k value.Kind) uint32 {
	switch k {
	case value.KindLong, value.KindDouble:
		return 8
	default:
		return 4
	}
}

// ByName returns the class with the given name, or nil.
func (u *Universe) ByName(name string) *Class { return u.byName[name] }

// ByID returns the class with the given ID, or nil.
func (u *Universe) ByID(id uint32) *Class {
	if id == 0 || int(id) > len(u.classes) {
		return nil
	}
	return u.classes[id-1]
}

// NumClasses returns the number of defined classes.
func (u *Universe) NumClasses() int { return len(u.classes) }

// Classes returns the classes in ID order. The slice is shared; callers
// must not modify it.
func (u *Universe) Classes() []*Class { return u.classes }

// GetStatic returns the current value of a static field.
func (u *Universe) GetStatic(f *Field) value.Value {
	i, ok := u.staticsByKey[f]
	if !ok {
		panic("classfile: not a static field: " + f.QName())
	}
	return u.staticVals[i]
}

// SetStatic sets the value of a static field.
func (u *Universe) SetStatic(f *Field, v value.Value) {
	i, ok := u.staticsByKey[f]
	if !ok {
		panic("classfile: not a static field: " + f.QName())
	}
	u.staticVals[i] = v
}

// StaticRoots calls fn with a pointer to every reference-kind static slot,
// letting the GC treat statics as roots and update them after compaction.
func (u *Universe) StaticRoots(fn func(*value.Value)) {
	for i, f := range u.statics {
		if f.Kind == value.KindRef {
			fn(&u.staticVals[i])
		}
	}
}

// EachStatic calls fn for every static field with its current value, in
// declaration order. The differential oracle uses it to fingerprint the
// statics as part of the architectural state.
func (u *Universe) EachStatic(fn func(f *Field, v value.Value)) {
	for i, f := range u.statics {
		fn(f, u.staticVals[i])
	}
}

// ResetStatics restores every static field to its zero value. Harness runs
// use it to reuse one universe across repeated executions.
func (u *Universe) ResetStatics() {
	for i, f := range u.statics {
		u.staticVals[i] = zeroOf(f.Kind)
	}
}

func zeroOf(k value.Kind) value.Value {
	switch k {
	case value.KindRef:
		return value.Null
	default:
		return value.Value{K: k}
	}
}
