"""The built-in fixture suites as genspec text: one sample per line, in
the dialect ``gen --spec`` reads. ``roundtrip`` is derived from the
catalog; ``corpus60`` and ``scenarios`` are written out.

``generate.suite_specs`` parses them and adds the suite seed to each
line's ``seed``.
"""

from .catalog import KNOWN_TECHNIQUES

CORPUS60 = """\
# A 60-sample labeled fixture corpus exercising every aggregate.

# fam_alpha: shared IsDebuggerPresentAPI, AntiDebug always first
sample_id=s01 techniques=IsDebuggerPresentAPI@10;RDTSC@50 visible=NtWriteFile@5;NtWriteFile@70;connect@90 dataset=malware family=fam_alpha year=2016 seed=0
sample_id=s02 techniques=IsDebuggerPresentAPI@12;idt_trick@60 visible=RegSetValueEx@80 dataset=malware family=fam_alpha year=2016 seed=1
sample_id=s03 techniques=IsDebuggerPresentAPI@8 dataset=malware family=fam_alpha year=2016 seed=2
sample_id=s04 techniques=IsDebuggerPresentAPI@15;ErasePEHeader@70 visible=NtWriteFile@90;NtWriteFile@95 dataset=malware family=fam_alpha year=2017 seed=3
sample_id=s05 techniques=IsDebuggerPresentAPI@11;memory_space@40 visible=CreateProcessW@75 dataset=malware family=fam_alpha year=2017 seed=4

# fam_beta: disjoint techniques, empty footprint
sample_id=s06 techniques=vm_check_mac@30 dataset=malware family=fam_beta year=2017 seed=5
sample_id=s07 techniques=CanOpenCsrss@45 dataset=malware family=fam_beta year=2017 seed=6
sample_id=s08 techniques=SizeOfImage@55 dataset=malware family=fam_beta year=2018 seed=7
sample_id=s09 techniques=time_stalling@25 dataset=malware family=fam_beta year=2018 seed=8

# fam_gamma: two shared techniques
sample_id=s10 techniques=IsDebuggerPresentPEB@5;RDTSC@20 dataset=malware family=fam_gamma year=2018 seed=9
sample_id=s11 techniques=IsDebuggerPresentPEB@6;RDTSC@22;HeapFlags@60 dataset=malware family=fam_gamma year=2018 seed=10
sample_id=s12 techniques=IsDebuggerPresentPEB@4;RDTSC@18;reg_keys@75 dataset=malware family=fam_gamma year=2019 seed=11
sample_id=s13 techniques=IsDebuggerPresentPEB@7;RDTSC@24 dataset=malware family=fam_gamma year=2019 seed=12

# fam_delta: mixed evasive and clean samples
sample_id=s14 techniques=process_enum@35 visible=connect@60 dataset=malware family=fam_delta year=2019 seed=13
sample_id=s15 dataset=malware family=fam_delta year=2019 seed=14
sample_id=s16 dataset=malware family=fam_delta year=2020 seed=15
sample_id=s17 visible=NtWriteFile@50 dataset=malware family=fam_delta year=2020 seed=16

# fam_epsilon: timing attacks come first
sample_id=s18 techniques=RDTSC@5;IsDebuggerPresentPEB@50 dataset=malware family=fam_epsilon year=2020 seed=17
sample_id=s19 techniques=RDTSC@6;NtGlobalFlag@55 dataset=malware family=fam_epsilon year=2020 seed=18
sample_id=s20 techniques=time_stalling@4;CanOpenCsrss@45 dataset=malware family=fam_epsilon year=2020 seed=19

# fam_zeta: VM checks / anti dump first
sample_id=s21 techniques=idt_trick@5;ErasePEHeader@60 dataset=malware family=fam_zeta year=2016 seed=20
sample_id=s22 techniques=gdt_trick@6;SizeOfImage@65 dataset=malware family=fam_zeta year=2016 seed=21
sample_id=s23 techniques=ErasePEHeader@5;RDTSC@80 dataset=malware family=fam_zeta year=2017 seed=22

# packed samples: anti-dump dominated
sample_id=s24 techniques=ErasePEHeader@8;RDTSC@40 dataset=malware family=fam_pack0 year=2016 packer=upx seed=23
sample_id=s25 techniques=ErasePEHeader@8;IsDebuggerPresentAPI@43 dataset=malware family=fam_pack1 year=2017 packer=upx seed=24
sample_id=s26 techniques=ErasePEHeader@8;vm_check_mac@46 dataset=malware family=fam_pack0 year=2018 packer=upx seed=25
sample_id=s27 techniques=ErasePEHeader@8;process_enum@49 dataset=malware family=fam_pack1 year=2019 packer=upx seed=26
sample_id=s28 techniques=ErasePEHeader@8;memory_space@52 dataset=malware family=fam_pack0 year=2020 packer=upx seed=27
sample_id=s29 techniques=ErasePEHeader@8;CanOpenCsrss@55 dataset=malware family=fam_pack1 year=2016 packer=upx seed=28
sample_id=s30 techniques=ErasePEHeader@8;idt_trick@58 dataset=malware family=fam_pack0 year=2017 packer=upx seed=29
sample_id=s31 techniques=ErasePEHeader@8;time_stalling@61 dataset=malware family=fam_pack1 year=2018 packer=upx seed=30

# protected samples: many techniques each
sample_id=s32 techniques=IsDebuggerPresentAPI@10;IsDebuggerPresentPEB@18;RDTSC@26 dataset=malware family=fam_prot year=2016 protector=themida seed=31
sample_id=s33 techniques=IsDebuggerPresentAPI@10;NtGlobalFlag@18;idt_trick@26;memory_space@34 dataset=malware family=fam_prot year=2017 protector=themida seed=32
sample_id=s34 techniques=CheckRemoteDebuggerPresentAPI@10;HeapFlags@18;str_trick@26;disk_size_getdiskfreespace@34;RDTSC@42 dataset=malware family=fam_prot year=2018 protector=themida seed=33
sample_id=s35 techniques=IsDebuggerPresentAPI@10;IsDebuggerPresentPEB@18;NtGlobalFlag@26;cpuid_hypervisor_vendor@34;ErasePEHeader@42;time_stalling@50;Check_EIP@58 dataset=malware family=fam_prot year=2019 protector=themida seed=34
sample_id=s36 techniques=vm_check_mac@10;SharedUserData_KernelDebugger@18 dataset=malware family=fam_prot year=2020 protector=themida seed=35

# never started / started but not active
sample_id=s37 filler=0 dataset=malware family=fam_delta year=2016 seed=36
sample_id=s38 filler=0 dataset=malware family=fam_delta year=2017 seed=37
sample_id=s39 filler=20 dataset=malware family=fam_delta year=2018 seed=38
sample_id=s40 filler=20 dataset=malware family=fam_delta year=2019 seed=39

# FP-prone-only samples: detections but not evasive
sample_id=s41 techniques=GetTickCount@30 dataset=goodware family=fam_good year=2020 seed=40
sample_id=s42 techniques=mouse_movement@35 dataset=goodware family=fam_good year=2020 seed=41
sample_id=s43 techniques=cpuid_is_hypervisor@40 dataset=goodware family=fam_good year=2020 seed=42
sample_id=s44 techniques=NumberOfProcessors@45 dataset=goodware family=fam_good year=2020 seed=43

# clean goodware with ordinary behavior
sample_id=s45 visible=NtWriteFile@20;RegSetValueEx@80 dataset=goodware family=fam_good year=2016 seed=44
sample_id=s46 visible=NtWriteFile@30;RegSetValueEx@80 dataset=goodware family=fam_good year=2017 seed=45
sample_id=s47 visible=NtWriteFile@40;RegSetValueEx@80 dataset=goodware family=fam_good year=2018 seed=46
sample_id=s48 visible=NtWriteFile@50;RegSetValueEx@80 dataset=goodware family=fam_good year=2019 seed=47
sample_id=s49 visible=NtWriteFile@60;RegSetValueEx@80 dataset=goodware family=fam_good year=2020 seed=48
sample_id=s50 visible=NtWriteFile@70;RegSetValueEx@80 dataset=goodware family=fam_good year=2016 seed=49

# scenario samples; s53 is a protector-style bundle of many techniques
# across many categories
sample_id=s51 visible=connect@95 dataset=malware family=fam_inject year=2020 scenario=injection seed=50
sample_id=s52 dataset=malware family=fam_locky year=2016 scenario=locky seed=51
sample_id=s53 techniques=IsDebuggerPresentAPI@5;IsDebuggerPresentPEB@12;NtGlobalFlag@19;CheckRemoteDebuggerPresentAPI@26;cpuid_hypervisor_vendor@33;idt_trick@40;str_trick@47;memory_space@54;disk_size_getdiskfreespace@61;RDTSC@68;ErasePEHeader@75;Check_EIP@82 filler=80 dataset=malware family=fam_prot year=2020 protector=themida seed=53

# mixed evasive samples with visible-call splits
sample_id=s54 techniques=NQIP_ProcessDebugPort@30 visible=NtWriteFile@5;NtWriteFile@60;connect@85 dataset=malware family=fam_misc year=2019 seed=53
sample_id=s55 techniques=Firmware_RSMB@30 visible=RegSetValueEx@70 dataset=malware family=fam_misc year=2019 seed=54
sample_id=s56 techniques=setupdi_diskdrive@30 visible=NtWriteFile@10;NtWriteFile@12;send@88 dataset=malware family=fam_misc year=2019 seed=55
sample_id=s57 techniques=dizk_size_deviceiocontrol@30 visible=WSASend@91 dataset=malware family=fam_misc year=2019 seed=56
sample_id=s58 techniques=Interrupt_3@30 visible=NtWriteFile@75;NtWriteFile@82 dataset=malware family=fam_misc year=2019 seed=57
sample_id=s59 techniques=serial_number_bios_wmi@30;disk_size_wmi@50 dataset=malware family=fam_wmi year=2019 seed=58
sample_id=s60 techniques=Shellcode_injected@30 visible=connect@90 dataset=malware family=fam_misc year=2019 seed=59
"""

SCENARIOS = """\
sample_id=locky_loop family=locky year=2016 scenario=locky
sample_id=injector family=injector year=2018 scenario=injection
# a protector-style bundle: many techniques across many categories
sample_id=themida_bundle techniques=IsDebuggerPresentAPI@5;IsDebuggerPresentPEB@12;NtGlobalFlag@19;CheckRemoteDebuggerPresentAPI@26;cpuid_hypervisor_vendor@33;idt_trick@40;str_trick@47;memory_space@54;disk_size_getdiskfreespace@61;RDTSC@68;ErasePEHeader@75;Check_EIP@82 filler=80 family=protected year=2020 protector=themida
"""

# one red-origin positive and one benign-origin negative twin per technique
ROUNDTRIP = "".join(f"sample_id=pos_{t} techniques={t}@60:red\n"
                    f"sample_id=neg_{t} techniques={t}@60:benign\n"
                    for t in sorted(KNOWN_TECHNIQUES))
